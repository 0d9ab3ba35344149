package main

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
)

func TestParseSweep(t *testing.T) {
	got, err := parseSweep("1, 2,4")
	if err != nil || !reflect.DeepEqual(got, []int{1, 2, 4}) {
		t.Fatalf("parseSweep = %v, %v", got, err)
	}
	for _, bad := range []string{"", "x", "0", "1,-2", "1,,2"} {
		if _, err := parseSweep(bad); err == nil {
			t.Errorf("parseSweep(%q) accepted", bad)
		}
	}
}

func TestRunExemplarOnEveryPlatformKind(t *testing.T) {
	// Tiny configurations only; this is a smoke test of the dispatch.
	pi := cluster.RaspberryPi()
	colab := cluster.ColabVM()
	for _, ex := range []string{"integration", "drugdesign", "forestfire"} {
		if err := runExemplarSmoke(pi, ex); err != nil {
			t.Errorf("pi/%s: %v", ex, err)
		}
		if err := runExemplarSmoke(colab, ex); err != nil {
			t.Errorf("colab/%s: %v", ex, err)
		}
	}
	if err := runExemplar(pi, "nonsense", 2); err == nil {
		t.Error("unknown exemplar accepted")
	}
	// PageRank has only the message-passing form: it runs on the cluster
	// platforms and is refused on the Pi.
	if err := runExemplarSmoke(colab, "pagerank"); err != nil {
		t.Errorf("colab/pagerank: %v", err)
	}
	if err := runExemplar(pi, "pagerank", 2); err == nil {
		t.Error("pi/pagerank ran without a shared-memory form")
	}
}

// runExemplarSmoke exercises runExemplar with np=2 (full workloads are the
// benchmark's business, not the test's; correctness of the underlying
// exemplars is covered in their own packages).
func runExemplarSmoke(p cluster.Platform, exemplar string) error {
	return runExemplar(p, exemplar, 2)
}
