package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/mesh"
	"repro/pkg/api"
	"repro/pkg/client"
)

// cmdArtifact builds, inspects and verifies plan-census artifacts — the
// mmap-able files embedserver -plan-artifact serves as its O(1) L1 plan
// tier:
//
//	embedctl artifact build -o plans.art -dims 3 -max-axis 64
//	embedctl artifact build -o plans.art -addr URL ...   # via a plancensus job
//	embedctl artifact inspect plans.art
//	embedctl artifact verify -sample 1000 plans.art
func cmdArtifact(args []string) {
	if len(args) < 1 {
		artifactUsage()
	}
	sub, rest := args[0], args[1:]
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	switch sub {
	case "build":
		artifactBuild(ctx, rest)
	case "inspect":
		artifactInspect(rest)
	case "verify":
		artifactVerify(rest)
	default:
		artifactUsage()
	}
}

func artifactUsage() {
	fmt.Fprintf(os.Stderr, `usage:
  embedctl artifact build   -o FILE [-family mesh|torus] [-dims K]
                            [-max-axis L] [-addr URL]
                            plan every canonical K-D shape with axes ≤ L and
                            write the plan-census artifact to FILE; with
                            -addr the census runs as a plancensus job on a
                            running embedserver and the artifact is
                            downloaded when done
  embedctl artifact inspect FILE
                            print the artifact header (family, domain,
                            record count, checksums, planner fingerprint)
  embedctl artifact verify  [-sample N] FILE
                            load FILE (checksum-gated) and re-plan N random
                            records (0: all) checking byte-identity
`)
	os.Exit(2)
}

func artifactBuild(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("artifact build", flag.ExitOnError)
	out := fs.String("o", "plans.art", "output artifact file")
	family := fs.String("family", "", "guest family: mesh (default) or torus")
	dims := fs.Int("dims", 3, "shape dimensionality")
	maxAxis := fs.Int("max-axis", 64, "axis bound")
	addr := fs.String("addr", "", "run as a plancensus job on this embedserver instead of locally")
	_ = fs.Parse(args)
	if fs.NArg() != 0 {
		artifactUsage()
	}
	if *addr != "" {
		artifactBuildRemote(ctx, *addr, *out, *family, *dims, *maxAxis)
		return
	}
	desc, err := guest.ByName(*family)
	if err != nil {
		fmt.Fprintln(os.Stderr, "embedctl:", err)
		os.Exit(2)
	}
	fam := desc.Family
	if fam != guest.Mesh && fam != guest.Torus {
		fmt.Fprintln(os.Stderr, "embedctl: artifacts cover the rank-indexable families mesh and torus")
		os.Exit(2)
	}
	total := artifact.TotalRecords(*dims, *maxAxis)
	if total > artifact.MaxRecords {
		fmt.Fprintf(os.Stderr, "embedctl: dims=%d max-axis=%d spans %d records (cap %d)\n",
			*dims, *maxAxis, total, artifact.MaxRecords)
		os.Exit(2)
	}
	pl := core.NewPlanner(core.DefaultOptions)
	b, err := artifact.NewBuilder(*out, fam.String(), *dims, *maxAxis, pl.Fingerprint())
	check(err)
	start := time.Now()
	var done uint64
	for c := 1; c <= *maxAxis; c++ {
		artifact.EachShapeWithMax(*dims, c, func(s mesh.Shape) {
			check(b.Add(s, pl.PlanGuest(fam, s).Entry()))
			done++
		})
		fmt.Fprintf(os.Stderr, "\rmax axis %d/%d  %d/%d plans", c, *maxAxis, done, total)
	}
	hdr, err := b.Finalize()
	if err != nil {
		fmt.Fprintln(os.Stderr, "\nembedctl:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "\rwrote %s: %d records, %d string bytes, crc %08x, %s\n",
		*out, hdr.RecordCount, hdr.StringBytes, hdr.CRC, time.Since(start).Round(time.Millisecond))
}

// artifactBuildRemote submits a plancensus job, watches it and downloads
// the artifact.
func artifactBuildRemote(ctx context.Context, addr, out, family string, dims, maxAxis int) {
	c := client.New(addr)
	st, err := c.SubmitJob(ctx, api.JobSubmitRequest{
		Kind:       api.JobPlanCensus,
		PlanCensus: &api.PlanCensusParams{Dims: dims, MaxAxis: maxAxis, Family: family},
	})
	check(err)
	fmt.Fprintf(os.Stderr, "submitted %s\n", st.ID)
	fin, err := c.WatchJob(ctx, st.ID, time.Second, watchLine)
	check(err)
	fmt.Fprintln(os.Stderr)
	if fin.State != api.JobDone {
		fmt.Fprintf(os.Stderr, "embedctl: job ended %s: %s\n", fin.State, fin.Error)
		os.Exit(1)
	}
	rc, err := c.JobArtifact(ctx, st.ID)
	check(err)
	defer rc.Close()
	f, err := os.Create(out)
	check(err)
	n, err := io.Copy(f, rc)
	if err == nil {
		err = f.Close()
	}
	check(err)
	fmt.Fprintf(os.Stderr, "downloaded %s (%d bytes)\n", out, n)
}

// openArtifact loads an artifact or exits with the loader's complaint.
func openArtifact(path string) *artifact.Artifact {
	a, err := artifact.Open(path)
	check(err)
	return a
}

func artifactInspect(args []string) {
	if len(args) != 1 {
		artifactUsage()
	}
	a := openArtifact(args[0])
	defer a.Close()
	hdr := a.Header()
	fi, _ := os.Stat(args[0])
	fmt.Printf("file:         %s (%d bytes)\n", args[0], fi.Size())
	fmt.Printf("family:       %s\n", hdr.Family)
	fmt.Printf("domain:       %d-D, axes 1..%d\n", hdr.Dims, hdr.MaxAxis)
	fmt.Printf("records:      %d (%d record bytes, %d string bytes)\n",
		hdr.RecordCount, hdr.RecordCount*artifact.RecordSize, hdr.StringBytes)
	fmt.Printf("body crc32:   %08x\n", hdr.CRC)
	fmt.Printf("fingerprint:  %016x", hdr.Fingerprint)
	if def := artifact.FingerprintHash(core.NewPlanner(core.DefaultOptions).Fingerprint()); def == hdr.Fingerprint {
		fmt.Printf(" (default planner options)")
	}
	fmt.Println()
	fmt.Printf("complete:     %v\n", hdr.Complete)
}

func artifactVerify(args []string) {
	fs := flag.NewFlagSet("artifact verify", flag.ExitOnError)
	sample := fs.Int("sample", 1000, "records to re-plan and compare (0: every record)")
	seed := fs.Int64("seed", 1, "sampling seed")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		artifactUsage()
	}
	a := openArtifact(fs.Arg(0))
	defer a.Close()
	hdr := a.Header()
	desc, err := guest.ByName(hdr.Family)
	check(err)
	pl := core.NewPlanner(core.DefaultOptions)
	if got := artifact.FingerprintHash(pl.Fingerprint()); got != hdr.Fingerprint {
		fmt.Fprintf(os.Stderr, "embedctl: fingerprint %016x does not match the default planner options (%016x); plans may legitimately differ\n",
			hdr.Fingerprint, got)
		os.Exit(1)
	}
	// Open already checksummed every byte; what remains is semantic: the
	// records must be the planner's own output.
	pick := func(uint64) bool { return true }
	if *sample > 0 && uint64(*sample) < hdr.RecordCount {
		frac := float64(*sample) / float64(hdr.RecordCount)
		rng := rand.New(rand.NewSource(*seed))
		pick = func(uint64) bool { return rng.Float64() < frac }
	}
	var checked, mismatched uint64
	for c := 1; c <= hdr.MaxAxis; c++ {
		artifact.EachShapeWithMax(hdr.Dims, c, func(s mesh.Shape) {
			if !pick(checked) {
				return
			}
			rec, ok, err := a.Lookup(s)
			if err != nil || !ok {
				fmt.Fprintf(os.Stderr, "embedctl: Lookup(%v): ok=%v err=%v\n", s, ok, err)
				os.Exit(1)
			}
			p := pl.PlanGuest(desc.Family, s)
			if rec != p.Entry() {
				mismatched++
				fmt.Fprintf(os.Stderr, "MISMATCH %v: artifact %+v, planner %v\n", s, rec, p)
			}
			checked++
		})
	}
	if mismatched > 0 {
		fmt.Fprintf(os.Stderr, "embedctl: %d of %d checked records mismatch\n", mismatched, checked)
		os.Exit(1)
	}
	fmt.Printf("ok: %d records checksummed, %d re-planned byte-identical\n", hdr.RecordCount, checked)
}
