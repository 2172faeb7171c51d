package jobs

import (
	"context"
	"errors"

	"repro/internal/fabric"
	"repro/pkg/api"
)

// runBodyDistributed is the fabric chunk source: chunks execute on the
// pool's peers (ExecuteChunk) and arrive through a Dispatch that folds
// them strictly in index order on this goroutine, each committed through
// the same log as the local loop's.  It is the local loop's execute → fold
// with the execute half moved to a peer, so the stream is the same bytes.
func (m *Manager) runBodyDistributed(ctx context.Context, l *resultLog) error {
	d := fabric.NewDispatch(m.cfg.Fabric, l.j.req, l.total)
	l.j.mu.Lock()
	l.j.dispatch = d
	l.j.mu.Unlock()
	defer func() {
		l.j.mu.Lock()
		l.j.dispatch = nil
		l.j.mu.Unlock()
	}()
	err := d.Run(ctx, l.next, func(res *api.ChunkResult) error {
		n, err := l.r.fold(res, &l.buf)
		if err != nil {
			return err
		}
		return l.commit(n)
	})
	// errAbandoned is the test hook's simulated kill: no further disk writes.
	if err != nil && !errors.Is(err, errAbandoned) && ctx.Err() != nil {
		_ = l.checkpoint() // best effort, as in runBody
		return ctx.Err()
	}
	return err
}
