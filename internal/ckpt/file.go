package ckpt

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// FileStore keeps checkpoints in a directory: one file per shard and a
// JSON manifest. Both shard writes and the manifest commit go through a
// temp-file + rename, so a process killed mid-write can never corrupt a
// committed version — at worst it leaves orphaned temp or shard files
// that the next commit ignores. Multiple processes may share the
// directory (the mpirun -recover harness points every rank at one dir);
// rename is the only publication step, so readers never observe a
// partial manifest. Every commit also keeps a per-version manifest file,
// so a later restore can fall back past a version whose shards rotted on
// disk (see LoadLatest).
type FileStore struct {
	dir string
}

// syncFile and syncDir are the durability seams of writeAtomic: the data
// must reach stable storage before the rename publishes it, and the
// rename itself must reach the directory. Tests substitute them to prove
// the publish path actually syncs; production always uses the real calls.
var (
	syncFile = func(f *os.File) error { return f.Sync() }
	syncDir  = func(dir string) error {
		d, err := os.Open(dir)
		if err != nil {
			return err
		}
		defer d.Close()
		return d.Sync()
	}
)

// NewFileStore opens (creating if needed) a checkpoint directory.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return &FileStore{dir: dir}, nil
}

// Namespace returns a FileStore rooted in a per-job subdirectory of this
// store, so many jobs can checkpoint concurrently under one configured
// directory without their versions, shards, or manifests ever meeting: the
// version counters of different namespaces are independent, and a commit
// in one can never be observed by a restore in another. The scheduler
// points every job at Namespace(jobID) of its one checkpoint root.
//
// The name must be non-empty and contain only letters, digits, '.', '_',
// and '-', and may not be "." or ".." — anything else (a path separator,
// say) would let one job escape into another's directory, so it is
// rejected rather than sanitized. The subdirectory is prefixed "job-" so a
// namespace can never collide with the store's own MANIFEST/shard/temp
// file names.
func (s *FileStore) Namespace(job string) (*FileStore, error) {
	if err := validateNamespace(job); err != nil {
		return nil, err
	}
	return NewFileStore(filepath.Join(s.dir, "job-"+job))
}

// validateNamespace enforces the namespace grammar documented on Namespace.
func validateNamespace(job string) error {
	if job == "" {
		return fmt.Errorf("ckpt: empty namespace")
	}
	if job == "." || job == ".." {
		return fmt.Errorf("ckpt: bad namespace %q", job)
	}
	for _, r := range job {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.' || r == '_' || r == '-':
		default:
			return fmt.Errorf("ckpt: bad namespace %q: character %q not allowed", job, r)
		}
	}
	return nil
}

func (s *FileStore) shardPath(version, shard int) string {
	return filepath.Join(s.dir, fmt.Sprintf("v%06d.s%03d", version, shard))
}

func (s *FileStore) manifestPath() string {
	return filepath.Join(s.dir, "MANIFEST")
}

func (s *FileStore) versionManifestPath(version int) string {
	return filepath.Join(s.dir, fmt.Sprintf("MANIFEST.v%06d", version))
}

// writeAtomic writes data to path via a same-directory temp file and
// rename, the classic crash-consistent publish. The temp file is fsynced
// before the rename — otherwise a crash could publish a name whose bytes
// never hit the disk — and the directory is fsynced after, so the rename
// itself survives.
func (s *FileStore) writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := syncFile(tmp); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("ckpt: fsync %s: %w", filepath.Base(path), err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("ckpt: fsync dir: %w", err)
	}
	return nil
}

func (s *FileStore) WriteShard(version, shard int, data []byte) error {
	return s.writeAtomic(s.shardPath(version, shard), data)
}

func (s *FileStore) ReadShard(version, shard int) ([]byte, error) {
	data, err := os.ReadFile(s.shardPath(version, shard))
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return data, nil
}

func (s *FileStore) Commit(m Manifest) error {
	if prev, ok, err := s.Latest(); err != nil {
		return err
	} else if ok && m.Version <= prev.Version {
		return fmt.Errorf("ckpt: commit version %d not newer than committed %d", m.Version, prev.Version)
	}
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	// The per-version copy lands first: if the crash window falls between
	// the two writes, MANIFEST still names the previous good version and
	// the orphaned copy is harmless.
	if err := s.writeAtomic(s.versionManifestPath(m.Version), data); err != nil {
		return err
	}
	return s.writeAtomic(s.manifestPath(), data)
}

func (s *FileStore) Latest() (Manifest, bool, error) {
	data, err := os.ReadFile(s.manifestPath())
	if os.IsNotExist(err) {
		return Manifest{}, false, nil
	}
	if err != nil {
		return Manifest{}, false, fmt.Errorf("ckpt: %w", err)
	}
	m, err := parseManifest(data)
	return m, err == nil, err
}

// parseManifest decodes a manifest file and checks that it names one CRC per
// shard: restoring reads CRCs[s] for every s < NP and sizes its shard list by
// NP, so a file that breaks the rule must not get that far.
func parseManifest(data []byte) (Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("ckpt: manifest corrupt: %w", err)
	}
	if m.NP < 0 || len(m.CRCs) != m.NP {
		return Manifest{}, fmt.Errorf("ckpt: manifest corrupt: NP %d with %d CRCs", m.NP, len(m.CRCs))
	}
	return m, nil
}

// Manifests returns every committed manifest still present in the
// directory, newest first. Unparseable or inconsistent per-version files are
// skipped — they are exactly the rot this history exists to route around.
func (s *FileStore) Manifests() ([]Manifest, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	var out []Manifest
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "MANIFEST.v") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, e.Name()))
		if m, perr := parseManifest(data); err == nil && perr == nil {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Version > out[j].Version })
	return out, nil
}
