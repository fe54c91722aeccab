package stream

import (
	"os"
	"path/filepath"
	"time"

	"dynaddr/internal/wal"
)

// Checkpoints are written off the apply path. When a checkpoint falls
// due, the shard goroutine syncs its log, encodes its state into its
// reused buffer and hands the buffer to its checkpoint writer, a
// goroutine that writes the temp file, fsyncs it, renames it over the
// checkpoint and syncs the directory, all through Config.FS. The shard
// goes on applying records meanwhile. At most one write is in flight,
// and the buffer belongs to the writer until the write reports back:
// the next checkpoint waits for the report even when it falls due
// sooner.
//
// The report is consumed on the shard goroutine, which then owns the
// rest of the protocol. On success the shard's generation advances to
// the checkpoint's and the WAL is truncated below it, so no generation
// a snapshot or ETag shows is missing from disk, and no WAL segment
// goes before the checkpoint covering it is durable. On failure the
// shard degrades, the previous checkpoint and the whole WAL stay in
// place, and the checkpoint is retried once the shard re-arms. Every
// barrier that reports a Version (snapshot, analysis, cursor) first
// waits for an in-flight write, and so does the shard's exit, which a
// durable ReleasePartition waits on before reading the file.

// ckptJob is one checkpoint handed to the writer.
type ckptJob struct {
	data  []byte
	seq   uint64 // last WAL sequence the checkpoint covers
	gen   uint64 // the generation it carries
	start time.Time
}

// ckptDone is the writer's report on a job.
type ckptDone struct {
	ckptJob
	err error
}

// ckptWriter is a shard's checkpoint writer goroutine. The shard
// stops it by closing jobs and waits on exited.
type ckptWriter struct {
	jobs   chan ckptJob  // at most one job queued or running
	done   chan ckptDone // its report
	exited chan struct{}
}

func startCkptWriter(fs wal.FS, dir string) *ckptWriter {
	w := &ckptWriter{
		jobs:   make(chan ckptJob, 1),
		done:   make(chan ckptDone, 1),
		exited: make(chan struct{}),
	}
	go func() {
		defer close(w.exited)
		for j := range w.jobs {
			w.done <- ckptDone{ckptJob: j, err: writeCheckpoint(fs, dir, j.data)}
		}
	}()
	return w
}

// writeCheckpoint atomically replaces dir's checkpoint file with data
// through fs: temp file, fsync, rename, directory sync.
func writeCheckpoint(fs wal.FS, dir string, data []byte) error {
	tmp := filepath.Join(dir, checkpointFile+".tmp")
	f, err := fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
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
	if err := fs.Rename(tmp, filepath.Join(dir, checkpointFile)); err != nil {
		return err
	}
	return syncDir(fs, dir)
}

// syncDir fsyncs a directory so renames and removals survive a crash;
// failure is tolerated (directory fsync is advisory on some systems).
func syncDir(fs wal.FS, dir string) error {
	d, err := fs.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}

// maybeCheckpoint starts a checkpoint once ckptEvery records have been
// applied since the last one, unless a write is still in flight or the
// shard is degraded.
func (s *shard) maybeCheckpoint() {
	if s.log == nil || s.ckptEvery <= 0 || s.sinceCkpt < s.ckptEvery || s.ckInflight || s.degraded.Load() {
		return
	}
	if err := s.startCheckpoint(); err != nil {
		// The records are appended and applied; only the checkpoint is
		// missing. Degrade and retry after re-arm (sinceCkpt stays over
		// the threshold).
		s.degrade(err)
	}
}

// startCheckpoint syncs the log, so the checkpoint never claims a
// sequence that could be lost, encodes the state and hands it to the
// writer.
func (s *shard) startCheckpoint() error {
	start := time.Now()
	if err := s.log.Sync(); err != nil {
		return err
	}
	data, err := s.appendCheckpoint(s.ckBuf[:0], s.gen+1)
	s.ckBuf = data
	if err != nil {
		return err
	}
	if s.ckw == nil {
		s.ckw = startCkptWriter(s.fs, s.dir)
	}
	s.ckw.jobs <- ckptJob{data: data, seq: s.lastSeq, gen: s.gen + 1, start: start}
	s.ckInflight = true
	s.sinceCkpt = 0
	return nil
}

// finishCheckpoint consumes the writer's report on the shard goroutine.
func (s *shard) finishCheckpoint(d ckptDone) {
	s.ckInflight = false
	if d.err != nil {
		s.sinceCkpt = max(s.sinceCkpt, s.ckptEvery)
		s.degrade(d.err)
		return
	}
	s.gen = d.gen
	if s.degraded.Load() {
		// The log failed while the write was in flight; the next
		// checkpoint after re-arm truncates it.
		return
	}
	if err := s.log.TruncateBefore(d.seq + 1); err != nil {
		s.degrade(err)
		return
	}
	s.metrics.checkpointed(time.Since(d.start))
}

// settleCheckpoint waits for an in-flight write and consumes its
// report.
func (s *shard) settleCheckpoint() {
	if s.ckInflight {
		s.finishCheckpoint(<-s.ckw.done)
	}
}

// ckptReport returns the writer's report channel while a write is in
// flight, and nil (never ready in a select) otherwise.
func (s *shard) ckptReport() <-chan ckptDone {
	if s.ckInflight {
		return s.ckw.done
	}
	return nil
}

// stopCkptWriter settles any in-flight write and returns once the
// writer has exited.
func (s *shard) stopCkptWriter() {
	s.settleCheckpoint()
	if s.ckw != nil {
		close(s.ckw.jobs)
		<-s.ckw.exited
		s.ckw = nil
	}
}
