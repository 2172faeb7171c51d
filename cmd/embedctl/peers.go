package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"repro/pkg/api"
	"repro/pkg/client"
)

// cmdPeers inspects and edits a running embedserver's fabric peer set:
//
//	embedctl peers [-addr URL]                          list peers
//	embedctl peers join [-addr URL] -secret S <peer>    register a peer
//
// Listing is public (the same operational surface as /metrics); joining
// routes compute to the new address and therefore needs the fabric secret.
func cmdPeers(args []string) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if len(args) > 0 && args[0] == "join" {
		peersJoin(ctx, args[1:])
		return
	}
	fs := flag.NewFlagSet("peers", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "embedserver base URL")
	_ = fs.Parse(args)
	if fs.NArg() != 0 {
		peersUsage()
	}
	resp, err := client.New(*addr).Peers(ctx)
	check(err)
	printPeers(resp.Peers)
}

func peersJoin(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("peers join", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "coordinator base URL")
	secret := fs.String("secret", "", "fabric shared secret (the coordinator's -fabric-secret)")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		peersUsage()
	}
	resp, err := client.New(*addr, client.WithSecret(*secret)).JoinPeer(ctx, fs.Arg(0))
	check(err)
	printPeers(resp.Peers)
}

func printPeers(peers []api.PeerStatus) {
	fmt.Printf("%-28s %-5s %8s %10s %8s %6s  %s\n",
		"peer", "state", "inflight", "dispatched", "requeued", "failed", "last error")
	for _, p := range peers {
		fmt.Printf("%-28s %-5s %8d %10d %8d %6d  %s\n",
			p.Addr, p.State, p.InFlight, p.Dispatched, p.Requeued, p.Failed, p.LastError)
	}
}

func peersUsage() {
	fmt.Fprintf(os.Stderr, `usage:
  embedctl peers [-addr URL]                        list fabric peers
  embedctl peers join [-addr URL] -secret S <peer>  register a worker URL
`)
	os.Exit(2)
}
