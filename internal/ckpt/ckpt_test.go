package ckpt

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/mpi"
)

func TestMemStoreVersioning(t *testing.T) {
	s := NewMemStore()
	if _, ok, err := s.Latest(); err != nil || ok {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	for v := 1; v <= 3; v++ {
		data := []byte(fmt.Sprintf("state-v%d", v))
		if err := s.WriteShard(v, 0, data); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(Manifest{Version: v, NP: 1, CRCs: []uint32{Checksum(data)}}); err != nil {
			t.Fatal(err)
		}
	}
	m, ok, err := s.Latest()
	if err != nil || !ok || m.Version != 3 {
		t.Fatalf("latest = %+v ok=%v err=%v, want version 3", m, ok, err)
	}
	if err := s.Commit(Manifest{Version: 2, NP: 1}); err == nil {
		t.Fatal("stale commit should be rejected")
	}
	// Older committed versions stay readable.
	data, err := s.ReadShard(1, 0)
	if err != nil || string(data) != "state-v1" {
		t.Fatalf("old shard: %q err=%v", data, err)
	}
}

func TestMemStoreShardIsolation(t *testing.T) {
	s := NewMemStore()
	buf := []byte("mutable")
	if err := s.WriteShard(1, 0, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X' // caller mutates after write; the store must hold a copy
	got, err := s.ReadShard(1, 0)
	if err != nil || string(got) != "mutable" {
		t.Fatalf("shard aliased caller buffer: %q err=%v", got, err)
	}
	got[0] = 'Y' // and reads must not alias the stored copy either
	again, _ := s.ReadShard(1, 0)
	if string(again) != "mutable" {
		t.Fatalf("stored shard mutated through read: %q", again)
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Latest(); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
	shards := [][]byte{[]byte("slab-0"), []byte("slab-1")}
	crcs := make([]uint32, len(shards))
	for i, data := range shards {
		if err := s.WriteShard(1, i, data); err != nil {
			t.Fatal(err)
		}
		crcs[i] = Checksum(data)
	}
	if err := s.Commit(Manifest{Version: 1, NP: 2, CRCs: crcs}); err != nil {
		t.Fatal(err)
	}
	// A second store on the same directory (another process, in real use)
	// sees the committed version.
	s2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, ok, err := s2.Latest()
	if err != nil || !ok || m.Version != 1 || m.NP != 2 {
		t.Fatalf("latest via second store = %+v ok=%v err=%v", m, ok, err)
	}
	for i, want := range shards {
		got, err := s2.ReadShard(1, i)
		if err != nil || string(got) != string(want) {
			t.Fatalf("shard %d: %q err=%v", i, got, err)
		}
	}
}

func TestCorruptShardDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SaveLocal(s, []byte("precious state")); err != nil {
		t.Fatal(err)
	}
	// Flip bits behind the store's back, as a torn disk would.
	if err := os.WriteFile(s.shardPath(1, 0), []byte("precious stAte"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, lerr := LoadLocal(s)
	if lerr == nil || !strings.Contains(lerr.Error(), "corrupt") {
		t.Fatalf("corruption should fail the load, got %v", lerr)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	type state struct {
		Step    int
		Grid    []byte
		Burning []int
	}
	in := state{Step: 7, Grid: []byte{0, 1, 2}, Burning: []int{3, 9}}
	data, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	var out state
	if err := Decode(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Step != in.Step || string(out.Grid) != string(in.Grid) || len(out.Burning) != 2 {
		t.Fatalf("round trip: %+v", out)
	}
}

// TestWriteAtomicFsyncs: the crash-consistent publish is only honest if
// the temp file is synced before the rename and the directory after it.
// The seams count the calls; a SaveLocal commits one shard and two
// manifest files, so both seams must fire for every writeAtomic.
func TestWriteAtomicFsyncs(t *testing.T) {
	origFile, origDir := syncFile, syncDir
	defer func() { syncFile, syncDir = origFile, origDir }()
	fileSyncs, dirSyncs := 0, 0
	syncFile = func(f *os.File) error { fileSyncs++; return f.Sync() }
	syncDir = func(dir string) error { dirSyncs++; return origDir(dir) }

	s, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SaveLocal(s, []byte("durable state")); err != nil {
		t.Fatal(err)
	}
	// One shard + the per-version manifest + MANIFEST = 3 publishes.
	if fileSyncs != 3 || dirSyncs != 3 {
		t.Fatalf("fsync calls: file=%d dir=%d, want 3 each", fileSyncs, dirSyncs)
	}

	// A failing file sync must abort the publish before the rename.
	syncFile = func(*os.File) error { return fmt.Errorf("injected fsync failure") }
	if err := s.WriteShard(9, 0, []byte("x")); err == nil || !strings.Contains(err.Error(), "fsync") {
		t.Fatalf("failed fsync should fail the write, got %v", err)
	}
	if _, err := s.ReadShard(9, 0); err == nil {
		t.Fatal("aborted publish must not leave the shard visible")
	}
}

// TestLoadLatestFallsBackOnCorruption: when the newest version's shards
// rot on disk, a restore downgrades to the previous committed version
// instead of failing — every rank agrees on the downgraded version.
func TestLoadLatestFallsBackOnCorruption(t *testing.T) {
	dir := t.TempDir()
	const np = 2
	err := mpi.Run(np, func(c *mpi.Comm) error {
		s, err := NewFileStore(dir)
		if err != nil {
			return err
		}
		for gen := 0; gen < 2; gen++ {
			shard, err := Encode([]int{c.Rank(), gen})
			if err != nil {
				return err
			}
			if _, err := Save(c, s, shard); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		// Rot version 2's shard 1 behind the store's back (rank 0 only, so
		// the damage happens exactly once).
		if c.Rank() == 0 {
			if err := os.WriteFile(s.shardPath(2, 1), []byte("bitrot"), 0o644); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		m, shards, ok, err := LoadLatest(c, s)
		if err != nil {
			return fmt.Errorf("restore should fall back, got %w", err)
		}
		if !ok || m.Version != 1 || len(shards) != np {
			return fmt.Errorf("fell back to m=%+v ok=%v, want version 1", m, ok)
		}
		for r, data := range shards {
			var got []int
			if err := Decode(data, &got); err != nil {
				return err
			}
			if len(got) != 2 || got[0] != r || got[1] != 0 {
				return fmt.Errorf("shard %d decoded to %v, want gen-0 state", r, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLoadLatestAllVersionsCorrupt: with no intact version left, the
// restore reports the newest version's corruption rather than inventing
// state.
func TestLoadLatestAllVersionsCorrupt(t *testing.T) {
	dir := t.TempDir()
	err := mpi.Run(1, func(c *mpi.Comm) error {
		s, err := NewFileStore(dir)
		if err != nil {
			return err
		}
		for gen := 0; gen < 2; gen++ {
			if _, err := Save(c, s, []byte{byte(gen)}); err != nil {
				return err
			}
		}
		for v := 1; v <= 2; v++ {
			if err := os.WriteFile(s.shardPath(v, 0), []byte("rot"), 0o644); err != nil {
				return err
			}
		}
		_, _, _, lerr := LoadLatest(c, s)
		if lerr == nil || !strings.Contains(lerr.Error(), "corrupt") {
			return fmt.Errorf("restore with no intact version should fail, got %v", lerr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestManifestNPMatchesCRCs: a manifest naming more shards than CRCs is
// corrupt. Both shard files exist and are empty, so shard 0 verifies against
// CRC 0 and a restore that believed NP would index CRCs[1].
func TestManifestNPMatchesCRCs(t *testing.T) {
	s, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bad := []byte(`{"Version":1,"NP":2,"CRCs":[0]}`)
	for _, path := range []string{s.manifestPath(), s.versionManifestPath(1), s.shardPath(1, 0), s.shardPath(1, 1)} {
		data := bad
		if strings.Contains(path, ".s") {
			data = nil
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	err = mpi.Run(1, func(c *mpi.Comm) error {
		_, _, _, err := LoadLatest(c, s)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "manifest corrupt") {
		t.Fatalf("LoadLatest: err = %v, want manifest corrupt", err)
	}
	if _, _, err := s.Latest(); err == nil || !strings.Contains(err.Error(), "manifest corrupt") {
		t.Fatalf("Latest: err = %v, want manifest corrupt", err)
	}
	if ms, err := s.Manifests(); err != nil || len(ms) != 0 {
		t.Fatalf("Manifests = %+v, %v: want the corrupt manifest skipped", ms, err)
	}
}

func TestCollectiveSaveLoad(t *testing.T) {
	store := NewMemStore()
	const np = 4
	// Two generations of checkpoints, then every rank restores the newest
	// and sees all shards.
	err := mpi.Run(np, func(c *mpi.Comm) error {
		for gen := 0; gen < 2; gen++ {
			shard, err := Encode([]int{c.Rank(), gen})
			if err != nil {
				return err
			}
			v, err := Save(c, store, shard)
			if err != nil {
				return err
			}
			if v != gen+1 {
				return fmt.Errorf("save version %d, want %d", v, gen+1)
			}
		}
		m, shards, ok, err := LoadLatest(c, store)
		if err != nil {
			return err
		}
		if !ok || m.Version != 2 || m.NP != np || len(shards) != np {
			return fmt.Errorf("load: m=%+v ok=%v len=%d", m, ok, len(shards))
		}
		for r, data := range shards {
			var got []int
			if err := Decode(data, &got); err != nil {
				return err
			}
			if len(got) != 2 || got[0] != r || got[1] != 1 {
				return fmt.Errorf("shard %d decoded to %v", r, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveLoadEmpty(t *testing.T) {
	store := NewMemStore()
	err := mpi.Run(3, func(c *mpi.Comm) error {
		_, shards, ok, err := LoadLatest(c, store)
		if err != nil {
			return err
		}
		if ok || shards != nil {
			return fmt.Errorf("empty store should restore nothing, got ok=%v", ok)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentShardWrites(t *testing.T) {
	store := NewMemStore()
	const np = 8
	var wg sync.WaitGroup
	wg.Add(np)
	for r := 0; r < np; r++ {
		go func(r int) {
			defer wg.Done()
			data := []byte(fmt.Sprintf("shard-%d", r))
			if err := store.WriteShard(1, r, data); err != nil {
				t.Error(err)
			}
		}(r)
	}
	wg.Wait()
	for r := 0; r < np; r++ {
		got, err := store.ReadShard(1, r)
		if err != nil || string(got) != fmt.Sprintf("shard-%d", r) {
			t.Fatalf("shard %d: %q err=%v", r, got, err)
		}
	}
}

// TestNamespaceValidation pins the namespace grammar: anything that could
// navigate outside the per-job subdirectory is rejected, not sanitized.
func TestNamespaceValidation(t *testing.T) {
	root, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, ok := range []string{"job-17", "a", "A.b_c-9", "0042"} {
		if _, err := root.Namespace(ok); err != nil {
			t.Errorf("Namespace(%q) rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"", ".", "..", "a/b", "a\\b", "../escape", "a b", "a\x00b", "job/../../etc"} {
		if _, err := root.Namespace(bad); err == nil {
			t.Errorf("Namespace(%q) accepted", bad)
		}
	}
	// "MANIFEST" as a job name must not collide with the root store's own
	// manifest file: the namespace lands in a job- prefixed subdirectory.
	ns, err := root.Namespace("MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	if err := ns.WriteShard(1, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := ns.Commit(Manifest{Version: 1, NP: 1, CRCs: []uint32{Checksum([]byte("x"))}}); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := root.Latest(); err != nil || ok {
		t.Fatalf("root store observed a namespaced commit: ok=%v err=%v", ok, err)
	}
}

// TestNamespaceConcurrentJobs is the multi-tenant FileStore contract: many
// jobs checkpointing in parallel through per-job namespaces of ONE root
// directory, each running collective Save and LoadLatest on its own small
// world, never cross-read a shard or corrupt each other's manifests. This
// is exactly the scheduler's usage: one configured -ckpt root, one
// Namespace(jobID) store per running job.
func TestNamespaceConcurrentJobs(t *testing.T) {
	root, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const jobs, versions = 8, 5
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			ns, err := root.Namespace(fmt.Sprintf("job-%d", j))
			if err != nil {
				errs[j] = err
				return
			}
			errs[j] = mpi.Run(2, func(c *mpi.Comm) error {
				for v := 1; v <= versions; v++ {
					shard := []byte(fmt.Sprintf("job %d rank %d version %d", j, c.Rank(), v))
					if _, err := Save(c, ns, shard); err != nil {
						return fmt.Errorf("save v%d: %w", v, err)
					}
					m, shards, ok, err := LoadLatest(c, ns)
					if err != nil || !ok {
						return fmt.Errorf("load v%d: ok=%v err=%w", v, ok, err)
					}
					if m.Version != v || m.NP != 2 {
						return fmt.Errorf("job %d loaded manifest v%d np%d, want v%d np2", j, m.Version, m.NP, v)
					}
					for r, sh := range shards {
						want := fmt.Sprintf("job %d rank %d version %d", j, r, v)
						if string(sh) != want {
							return fmt.Errorf("cross-read: job %d got shard %q, want %q", j, sh, want)
						}
					}
				}
				return nil
			})
		}(j)
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			t.Errorf("job %d: %v", j, err)
		}
	}
	// Every namespace holds exactly its own committed history.
	for j := 0; j < jobs; j++ {
		ns, err := root.Namespace(fmt.Sprintf("job-%d", j))
		if err != nil {
			t.Fatal(err)
		}
		m, ok, err := ns.Latest()
		if err != nil || !ok || m.Version != versions {
			t.Errorf("job %d: Latest = v%d ok=%v err=%v, want v%d", j, m.Version, ok, err, versions)
		}
	}
}

// FuzzManifest feeds arbitrary bytes to a FileStore as both its MANIFEST and
// a per-version manifest. Latest and Manifests must never panic, and every
// manifest they return must carry one CRC per shard, so verifying it never
// indexes past CRCs.
func FuzzManifest(f *testing.F) {
	seed, err := NewFileStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := seed.Commit(Manifest{Version: 3, NP: 2, CRCs: []uint32{Checksum([]byte("a")), Checksum(nil)}}); err != nil {
		f.Fatal(err)
	}
	committed, err := os.ReadFile(seed.manifestPath())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(committed)
	f.Add([]byte(`{"Version":1,"NP":2,"CRCs":[0]}`))
	f.Add([]byte(`{"Version":1,"NP":-1,"CRCs":null}`))
	s, err := NewFileStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, path := range []string{s.manifestPath(), s.versionManifestPath(1)} {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var got []Manifest
		if m, ok, err := s.Latest(); err == nil && ok {
			got = append(got, m)
		}
		ms, err := s.Manifests()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range append(got, ms...) {
			if m.NP < 0 || len(m.CRCs) != m.NP {
				t.Fatalf("returned manifest %+v breaks NP == len(CRCs)", m)
			}
			_, _ = readVersion(s, m)
		}
	})
}
