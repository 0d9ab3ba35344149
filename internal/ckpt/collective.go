package ckpt

import (
	"fmt"

	"repro/internal/mpi"
)

// Collective checkpoint/restore. Save and LoadLatest are collectives in
// the MPI sense: every rank of the communicator must call them, in the
// same order relative to its other collectives. Both are safe to call
// from recovery-mode worlds — a rank failure mid-call surfaces as the
// underlying collective's retryable error, and because Commit is the
// only publication step (root-only, after every shard landed), an
// interrupted Save never produces a version a later restore would see.

// saveStatus is one rank's contribution to the commit decision.
type saveStatus struct {
	CRC uint32
	OK  bool
	Msg string
}

// Save checkpoints one shard per rank as a single new version and
// returns the committed version number. The root picks the version
// (latest + 1), every rank writes its own shard, and the root commits
// the manifest only after all ranks report a successful write.
func Save(c *mpi.Comm, store Store, shard []byte) (int, error) {
	version := 0
	if c.Rank() == 0 {
		m, ok, err := store.Latest()
		if err != nil {
			return 0, err
		}
		version = 1
		if ok {
			version = m.Version + 1
		}
	}
	version, err := mpi.Bcast(c, version, 0)
	if err != nil {
		return 0, err
	}

	st := saveStatus{CRC: Checksum(shard), OK: true}
	if werr := store.WriteShard(version, c.Rank(), shard); werr != nil {
		st.OK = false
		st.Msg = werr.Error()
	}
	all, err := mpi.Gather(c, st, 0)
	if err != nil {
		return 0, err
	}

	commitMsg := ""
	if c.Rank() == 0 {
		crcs := make([]uint32, len(all))
		for r, s := range all {
			if !s.OK {
				commitMsg = fmt.Sprintf("ckpt: rank %d shard write failed: %s", r, s.Msg)
				break
			}
			crcs[r] = s.CRC
		}
		if commitMsg == "" {
			if cerr := store.Commit(Manifest{Version: version, NP: c.Size(), CRCs: crcs}); cerr != nil {
				commitMsg = cerr.Error()
			}
		}
	}
	commitMsg, err = mpi.Bcast(c, commitMsg, 0)
	if err != nil {
		return 0, err
	}
	if commitMsg != "" {
		return 0, fmt.Errorf("%s", commitMsg)
	}
	return version, nil
}

// readVersion reads every shard of a committed version back and checks it
// against the manifest CRC, reporting the first mismatch.
func readVersion(store Store, m Manifest) ([][]byte, error) {
	shards := make([][]byte, m.NP)
	for s := range shards {
		data, err := store.ReadShard(m.Version, s)
		if err != nil {
			return nil, err
		}
		if got := Checksum(data); got != m.CRCs[s] {
			return nil, fmt.Errorf(
				"ckpt: version %d shard %d corrupt: crc %08x, manifest says %08x", m.Version, s, got, m.CRCs[s])
		}
		shards[s] = data
	}
	return shards, nil
}

// fallbackVersion walks older committed manifests, newest first, and
// returns the first version whose shards are all intact. Stores without
// history (plain Store) surface the original corruption unchanged.
func fallbackVersion(store Store, bad Manifest, cause error) (Manifest, error) {
	vs, ok := store.(VersionedStore)
	if !ok {
		return Manifest{}, cause
	}
	all, err := vs.Manifests()
	if err != nil {
		return Manifest{}, cause
	}
	for _, m := range all {
		if m.Version >= bad.Version {
			continue
		}
		if _, err := readVersion(store, m); err == nil {
			return m, nil
		}
	}
	return Manifest{}, cause
}

// LoadLatest restores the newest committed checkpoint: every rank
// receives the manifest and ALL of its shards (checked against the
// manifest CRCs), so the caller can re-decompose state saved by a larger
// world over the current, possibly shrunken one. ok is false — with nil
// error and nil shards — when no checkpoint has ever been committed.
// When the newest version fails verification and the store retains
// manifest history (VersionedStore), the restore falls back to the
// newest earlier version that is still intact: the root verifies and
// picks the version, so every rank restores the same state.
func LoadLatest(c *mpi.Comm, store Store) (Manifest, [][]byte, bool, error) {
	type latest struct {
		M  Manifest
		OK bool
	}
	var l latest
	if c.Rank() == 0 {
		m, ok, err := store.Latest()
		if err != nil {
			return Manifest{}, nil, false, err
		}
		if ok {
			if _, verr := readVersion(store, m); verr != nil {
				if m, err = fallbackVersion(store, m, verr); err != nil {
					return Manifest{}, nil, false, err
				}
			}
		}
		l = latest{M: m, OK: ok}
	}
	l, err := mpi.Bcast(c, l, 0)
	if err != nil {
		return Manifest{}, nil, false, err
	}
	if !l.OK {
		return Manifest{}, nil, false, nil
	}
	shards, err := readVersion(store, l.M)
	if err != nil {
		return Manifest{}, nil, false, err
	}
	return l.M, shards, true, nil
}

// SaveLocal commits a single-shard version from one rank, no collective
// involved: the master-worker exemplar checkpoints master-only state
// this way, so workers keep streaming results while the master saves.
func SaveLocal(store Store, shard []byte) (int, error) {
	m, ok, err := store.Latest()
	if err != nil {
		return 0, err
	}
	version := 1
	if ok {
		version = m.Version + 1
	}
	if err := store.WriteShard(version, 0, shard); err != nil {
		return 0, err
	}
	if err := store.Commit(Manifest{Version: version, NP: 1, CRCs: []uint32{Checksum(shard)}}); err != nil {
		return 0, err
	}
	return version, nil
}

// LoadLocal reads back the newest SaveLocal checkpoint. ok is false when
// none exists.
func LoadLocal(store Store) ([]byte, int, bool, error) {
	m, ok, err := store.Latest()
	if err != nil || !ok {
		return nil, 0, false, err
	}
	data, err := store.ReadShard(m.Version, 0)
	if err != nil {
		return nil, 0, false, err
	}
	if got := Checksum(data); len(m.CRCs) != 1 || got != m.CRCs[0] {
		return nil, 0, false, fmt.Errorf("ckpt: version %d shard 0 corrupt", m.Version)
	}
	return data, m.Version, true, nil
}
