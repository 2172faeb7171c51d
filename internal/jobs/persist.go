package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"

	"repro/pkg/api"
)

// On-disk layout: one directory per job under the manager's data dir,
// holding the job's status, its last checkpoint, the NDJSON result stream
// and, once a run ends, its span tree.
//
//	<data-dir>/<job-id>/job.json          — api.JobStatus, rewritten on every transition
//	<data-dir>/<job-id>/checkpoint.json   — checkpoint, rewritten every CheckpointEvery chunks
//	<data-dir>/<job-id>/results.ndjson    — append-only record stream
//	<data-dir>/<job-id>/trace.json        — obs span tree of the last run
const (
	statusFile     = "job.json"
	checkpointFile = "checkpoint.json"
	resultsFile    = "results.ndjson"
	traceFile      = "trace.json"
)

// checkpoint is the resume point persisted between chunks.  Offset is the
// result-stream length covering chunks [0, NextChunk); on resume the stream
// is truncated to Offset, the aggregate restored from Agg, and execution
// continues at NextChunk — reproducing the uninterrupted stream byte for
// byte because chunks are deterministic and appended in order.
type checkpoint struct {
	Version   int             `json:"version"` // api.JobSchemaVersion
	JobID     string          `json:"job_id"`
	NextChunk int             `json:"next_chunk"`
	Offset    int64           `json:"offset"`
	Shapes    uint64          `json:"shapes"`
	Retries   int             `json:"retries"`
	Agg       json.RawMessage `json:"agg,omitempty"`
	// Sum seals the fields above: see sum.  A checkpoint that does not
	// match its sum was not written whole by writeCheckpoint (a flipped
	// bit, a renamed key, an edited count) and is not resumed from.
	Sum uint32 `json:"sum"`
}

// sum is the CRC-32 (IEEE) of ck's JSON encoding with Sum zero.  It is
// taken over the decoded values, so the file's key order and whitespace do
// not enter it.  ck.Agg is valid JSON (snapshot's encoding, or what a
// decode accepted), so the encoding cannot fail.
func (ck checkpoint) sum() uint32 {
	ck.Sum = 0
	b, _ := json.Marshal(ck)
	return crc32.ChecksumIEEE(b)
}

// writeFileAtomic writes data to path via a same-directory temp file, fsync
// and rename, so readers (and the resume scan after a kill) never observe a
// torn file.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func writeJSONAtomic(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(path, append(b, '\n'))
}

// writeCheckpoint seals ck with its sum and atomically replaces dir's
// checkpoint with it.
func writeCheckpoint(dir string, ck checkpoint) error {
	ck.Sum = ck.sum()
	return writeJSONAtomic(filepath.Join(dir, checkpointFile), ck)
}

// readCheckpoint loads a job directory's checkpoint; (nil, nil) when none
// was ever written, an error when it is not JSON or does not match its
// sum.
func readCheckpoint(dir string) (*checkpoint, error) {
	b, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var ck checkpoint
	if err := json.Unmarshal(b, &ck); err != nil {
		return nil, err
	}
	if ck.Sum != ck.sum() {
		return nil, errors.New("checksum mismatch")
	}
	return &ck, nil
}

// readStatusFile loads a job directory's persisted status.
func readStatusFile(dir string) (api.JobStatus, error) {
	var st api.JobStatus
	b, err := os.ReadFile(filepath.Join(dir, statusFile))
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return st, fmt.Errorf("jobs: %s: %w", filepath.Join(dir, statusFile), err)
	}
	return st, nil
}
