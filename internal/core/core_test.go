package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/exemplars"
	"repro/internal/patternlets"
)

func TestModulesMatchThePaper(t *testing.T) {
	mods := Modules()
	if len(mods) != 2 {
		t.Fatalf("modules = %d", len(mods))
	}
	shmMod, distMod := mods[0], mods[1]

	if shmMod.Paradigm != patternlets.SharedMemory || shmMod.Handout == nil || shmMod.Notebook != nil {
		t.Error("shared-memory module mis-assembled")
	}
	if distMod.Paradigm != patternlets.MessagePassing || distMod.Notebook == nil || distMod.Handout != nil {
		t.Error("distributed module mis-assembled")
	}
	for _, m := range mods {
		if m.Duration != 2*time.Hour {
			t.Errorf("%s duration = %v, want the paper's 2-hour lab period", m.Name, m.Duration)
		}
		if len(m.Patternlets) == 0 {
			t.Errorf("%s has no patternlets", m.Name)
		}
	}
	// The distributed module offers the paper's three platforms: Colab,
	// Chameleon, St. Olaf.
	if len(distMod.Platforms) != 3 {
		t.Fatalf("distributed platforms = %d, want 3", len(distMod.Platforms))
	}
	if distMod.Platforms[0].TotalCores() != 1 {
		t.Error("first distributed platform should be the unicore Colab VM")
	}
	// The shared-memory module runs on the 4-core Pi.
	if shmMod.Platforms[0].TotalCores() != 4 {
		t.Error("shared-memory platform should be the 4-core Pi")
	}
	// Exemplars per Section III: integration + drug design (shm), forest
	// fire + drug design (dist).
	if strings.Join(shmMod.Exemplars, ",") != "integration,drugdesign" {
		t.Errorf("shm exemplars = %v", shmMod.Exemplars)
	}
	if strings.Join(distMod.Exemplars, ",") != "forestfire,drugdesign" {
		t.Errorf("dist exemplars = %v", distMod.Exemplars)
	}
}

// TestModuleExemplarsResolve: every exemplar a module names is in the
// catalog with the form that module's delivery runs — shared-memory on the
// Pi, message-passing on the cluster.
func TestModuleExemplarsResolve(t *testing.T) {
	for _, m := range Modules() {
		for _, name := range m.Exemplars {
			e, err := exemplars.Lookup(name)
			if err != nil {
				t.Fatalf("%s: %v", m.Name, err)
			}
			if m.Paradigm == patternlets.SharedMemory && e.Shared == nil ||
				m.Paradigm == patternlets.MessagePassing && e.MPI == nil {
				t.Errorf("%s: exemplar %s has no %s form", m.Name, name, m.Paradigm)
			}
		}
	}
}

func TestDeliverSharedMemoryModule(t *testing.T) {
	var buf bytes.Buffer
	if err := SharedMemoryModule().Deliver(&buf, 4); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Multicore Computing on the Raspberry Pi",
		"Chapter 2: Shared-Memory Patternlets",
		"patternlet spmd",
		"Hello from thread",
		"patternlet raceCondition",
		"Expected balance:",
		"exemplar: numerical integration",
		"pi ≈ 3.14159",
		"exemplar: drug design",
		"maximal score",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("shared-memory delivery missing %q", want)
		}
	}
}

func TestDeliverDistributedModule(t *testing.T) {
	var buf bytes.Buffer
	if err := DistributedModule().Deliver(&buf, 4); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Distributed Computing with MPI",
		">>> %%writefile 00spmd.py",
		"Greetings from process 0 of 4 on d6ff4f902ed6",
		">>> !mpirun --allow-run-as-root -np 4 python 00spmd.py",
		"exemplar: forest fire on Chameleon cluster",
		"burn curve from 4 processes:",
		"spread prob",
		"exemplar: drug design on Chameleon cluster",
		"maximal score",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("distributed delivery missing %q", want)
		}
	}
}

func TestDeliverRejectsBadWorkers(t *testing.T) {
	if err := SharedMemoryModule().Deliver(&bytes.Buffer{}, 0); err == nil {
		t.Fatal("workers=0 accepted")
	}
}

func TestSummer2020Workshop(t *testing.T) {
	w := Summer2020Workshop()
	if w.Days != 2.5 {
		t.Fatalf("days = %v, want 2.5", w.Days)
	}
	if len(w.Participants) != 22 {
		t.Fatalf("participants = %d", len(w.Participants))
	}
	moduleSessions := 0
	for _, s := range w.Sessions {
		if s.Module != nil {
			moduleSessions++
		}
	}
	if moduleSessions != 2 {
		t.Fatalf("module sessions = %d, want one per module", moduleSessions)
	}
	// The two hands-on sessions run on mornings of days 1 and 2.
	if w.Sessions[0].Day != 1 || w.Sessions[2].Day != 2 {
		t.Error("hands-on sessions not on the first two days")
	}
}

func TestWorkshopAssessmentReproducesThePaper(t *testing.T) {
	w := Summer2020Workshop()
	t2, f3, f4, err := w.Assessment()
	if err != nil {
		t.Fatal(err)
	}
	if t2.OpenMPImplement != 4.55 || t2.MPIProfDev != 4.29 {
		t.Errorf("Table II = %+v", t2)
	}
	if f3.PreMean != 2.82 || f3.PostMean != 3.59 {
		t.Errorf("Figure 3 means = %v/%v", f3.PreMean, f3.PostMean)
	}
	if f4.PreMean != 2.59 || f4.PostMean != 3.77 {
		t.Errorf("Figure 4 means = %v/%v", f4.PreMean, f4.PostMean)
	}
}
