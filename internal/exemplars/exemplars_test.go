package exemplars

import (
	"bytes"
	"maps"
	"strings"
	"sync"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/exemplars/drugdesign"
	"repro/internal/exemplars/forestfire"
	"repro/internal/mpi"
)

// lockedBuffer lets every rank write, so a second printing rank shows up as
// a second line instead of a data race.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

// TestCatalogForms runs every entry in every form it has, at two ranks or
// two threads with its defaults, and checks the one report it prints.
func TestCatalogForms(t *testing.T) {
	drug, err := drugdesign.Sequential(drugdesign.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	fire, err := forestfire.Sweep(forestfire.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	curve := forestfire.FormatCurve(fire)
	want := map[string][]string{
		"integration/mpi":    {"pi ≈ 3.14159", "across 2 processes"},
		"integration/shared": {"pi ≈ 3.14159", "with 2 threads"},
		"drugdesign/mpi":     {drug.String()},
		"drugdesign/recover": {drug.String() + " (survivors: 2/2 ranks)"},
		"drugdesign/shared":  {drug.String()},
		"forestfire/mpi":     {"burn curve from 2 processes:\n" + curve},
		"forestfire/recover": {"forest fire 21x21 p=0.60: burned ", " (survivors: 2/2 ranks)"},
		"forestfire/shared":  {"burn curve from 2 threads:\n" + curve},
		"pagerank/mpi":       {"pagerank over 2000 vertices", "mass 1.000000 across 2 processes"},
		"pagerank/recover":   {"pagerank over 2000 vertices", "mass 1.000000 (survivors: 2/2 ranks)"},
	}
	ran := 0
	for _, e := range All() {
		run := map[string]func(w *lockedBuffer) error{
			"mpi": func(w *lockedBuffer) error { return mpi.Run(2, e.Body(w, e.Defaults)) },
		}
		if e.Recover != nil {
			a, err := e.Args(nil, true)
			if err != nil {
				t.Fatalf("%s recovery defaults: %v", e.Name, err)
			}
			run["recover"] = func(w *lockedBuffer) error {
				return mpi.Run(2, e.RecoverBody(w, a, ckpt.NewMemStore(), "survivors"), mpi.WithRecovery())
			}
		}
		if e.Shared != nil {
			run["shared"] = func(w *lockedBuffer) error { return e.RunShared(w, 2, e.Defaults) }
		}
		for form, f := range run {
			key := e.Name + "/" + form
			var out lockedBuffer
			if err := f(&out); err != nil {
				t.Errorf("%s: %v", key, err)
				continue
			}
			ran++
			got := out.b.String()
			subs, ok := want[key]
			if !ok {
				t.Errorf("%s printed %q; the table has no row for it", key, got)
				continue
			}
			for _, sub := range subs {
				if strings.Count(got, sub) != 1 {
					t.Errorf("%s printed %q, want %q once", key, got, sub)
				}
			}
			if !strings.HasSuffix(got, "\n") || strings.HasSuffix(got, "\n\n") {
				t.Errorf("%s printed %q, want one report ending in one newline", key, got)
			}
		}
	}
	if ran != len(want) {
		t.Errorf("ran %d forms, the table has %d", ran, len(want))
	}
}

// TestCatalogArgs: overrides replace defaults; a key the chosen form does
// not read, or a value that is not a positive integer, is an error naming
// the key; the defaults stay as they were.
func TestCatalogArgs(t *testing.T) {
	e, err := Lookup("integration")
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.Args(map[string]string{"n": "1000"}, false)
	if err != nil || a["n"] != 1000 {
		t.Fatalf("n=1000: %v, %v", a, err)
	}
	if e.Defaults["n"] != 1_000_000 {
		t.Fatalf("defaults changed to %v", e.Defaults)
	}
	fire, err := Lookup("forestfire")
	if err != nil {
		t.Fatal(err)
	}
	a, err = fire.Args(map[string]string{"rows": "12", "ckpt_every": "2"}, true)
	if want := (Args{"rows": 12, "cols": fire.Defaults["cols"], "ckpt_every": 2}); err != nil || !maps.Equal(a, want) {
		t.Fatalf("forestfire recovery rows=12 ckpt_every=2: %v, %v; want %v", a, err, want)
	}
	for _, c := range []struct {
		name    string
		recover bool
		set     map[string]string
	}{
		{"integration", false, map[string]string{"m": "5"}},
		{"integration", false, map[string]string{"n": "1e6"}},
		{"integration", false, map[string]string{"n": ""}},
		{"integration", false, map[string]string{"n": "0"}},
		{"integration", false, map[string]string{"n": "-3"}},
		{"integration", false, map[string]string{"ckpt_every": "2"}},
		{"forestfire", false, map[string]string{"ckpt_every": "2"}},
		{"forestfire", true, map[string]string{"trials": "100"}},
		{"forestfire", true, map[string]string{"ckpt_every": "0"}},
		{"drugdesign", true, map[string]string{"ligands": "0"}},
		{"pagerank", false, map[string]string{"vertices": "1"}},
		{"pagerank", true, map[string]string{"degree": "8"}},
	} {
		e, err := Lookup(c.name)
		if err != nil {
			t.Fatal(err)
		}
		_, err = e.Args(c.set, c.recover)
		for k := range c.set {
			if err == nil || !strings.Contains(err.Error(), `"`+k+`"`) && !strings.Contains(err.Error(), k+"=") {
				t.Errorf("%s (recover %v) %v: err = %v, want it to name %q", c.name, c.recover, c.set, err, k)
			}
		}
	}
	if _, err := Lookup("mpiRing"); err == nil {
		t.Error("a patternlet resolved as an exemplar")
	}
	for _, e := range All() {
		if e.MPI == nil {
			t.Errorf("%s has no message-passing form", e.Name)
		}
		if e.Recover == nil && e.RecoverKeys != nil {
			t.Errorf("%s: recovery keys %v without a recovery form", e.Name, e.RecoverKeys)
		}
		for _, k := range e.RecoverKeys {
			if _, ok := e.Defaults[k]; !ok {
				t.Errorf("%s: recovery key %q has no default", e.Name, k)
			}
		}
	}
}
