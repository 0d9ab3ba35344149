package repro

// The benchmark harness: one benchmark (or benchmark family) per table and
// figure of the paper, plus the experiments E1–E4 from DESIGN.md and the
// ablations of the design choices it calls out. EXPERIMENTS.md records the
// paper-versus-measured outcome of each.

import (
	"bytes"
	"io"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/exemplars/drugdesign"
	"repro/internal/exemplars/forestfire"
	"repro/internal/exemplars/integration"
	"repro/internal/handout"
	"repro/internal/kit"
	"repro/internal/mpi"
	"repro/internal/notebook"
	"repro/internal/patternlets"
	"repro/internal/shm"
	"repro/internal/stats"
	"repro/internal/survey"
)

// --- Table I: kit bill of materials -----------------------------------

func BenchmarkTableIKitCost(b *testing.B) {
	parts := kit.BillOfMaterials()
	for i := 0; i < b.N; i++ {
		perKit, _, err := kit.CostFor(parts, 25)
		if err != nil || perKit <= 0 {
			b.Fatal(err)
		}
	}
}

// --- Figure 1: handout section render ----------------------------------

func BenchmarkFigure1Render(b *testing.B) {
	m := handout.RaspberryPiModule()
	s, err := m.Section("2.3")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		handout.RenderSection(&buf, s)
		if buf.Len() == 0 {
			b.Fatal("empty render")
		}
	}
}

// --- Figure 2: notebook SPMD cell on the Colab model --------------------

func BenchmarkFigure2SPMD(b *testing.B) {
	colab := cluster.ColabVM()
	rt := notebook.NewRuntime(colab.Launch)
	if err := notebook.BindPatternlets(rt); err != nil {
		b.Fatal(err)
	}
	nb := notebook.MPI4PyPatternletsNotebook()
	if _, err := rt.ExecuteCell(nb.Cells[2]); err != nil { // %%writefile 00spmd.py
		b.Fatal(err)
	}
	mpirun := nb.Cells[3]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.ExecuteCell(mpirun); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table II: Likert analysis ------------------------------------------

func BenchmarkTableIILikert(b *testing.B) {
	ps := survey.Workshop2020()
	for i := 0; i < b.N; i++ {
		r := survey.TableII(ps)
		if r.OpenMPImplement != 4.55 {
			b.Fatalf("Table II drifted: %+v", r)
		}
	}
}

// --- Figures 3 and 4: paired t-tests -------------------------------------

func BenchmarkFig3PairedTTest(b *testing.B) {
	ps := survey.Workshop2020()
	for i := 0; i < b.N; i++ {
		r, err := survey.Figure3(ps)
		if err != nil || r.PreMean != 2.82 {
			b.Fatalf("Figure 3 drifted: %+v, %v", r, err)
		}
	}
}

func BenchmarkFig4PairedTTest(b *testing.B) {
	ps := survey.Workshop2020()
	for i := 0; i < b.N; i++ {
		r, err := survey.Figure4(ps)
		if err != nil || r.PostMean != 3.77 {
			b.Fatalf("Figure 4 drifted: %+v, %v", r, err)
		}
	}
}

// --- E1: the Pi module's benchmarking study ------------------------------
// Real CPU work at 1, 2, and 4 threads. On a multicore host the 2- and
// 4-thread variants show the module's speedup; on a single-core host they
// measure scheduling overhead only (EXPERIMENTS.md records which this was).

func benchPiIntegration(b *testing.B, threads int) {
	const n = 2_000_000
	for i := 0; i < b.N; i++ {
		v, err := integration.TrapezoidShared(integration.QuarterCircle, 0, 1, n, threads)
		if err != nil || v < 3 || v > 3.3 {
			b.Fatalf("bad result %v, %v", v, err)
		}
	}
}

func BenchmarkPiIntegrationThreads1(b *testing.B) { benchPiIntegration(b, 1) }
func BenchmarkPiIntegrationThreads2(b *testing.B) { benchPiIntegration(b, 2) }
func BenchmarkPiIntegrationThreads4(b *testing.B) { benchPiIntegration(b, 4) }

func benchPiDrugDesign(b *testing.B, threads int) {
	params := drugdesign.DefaultParams()
	params.NumLigands = 400
	params.MaxLigandLen = 10
	for i := 0; i < b.N; i++ {
		if _, err := drugdesign.Shared(params, threads, shm.Dynamic(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPiDrugDesignThreads1(b *testing.B) { benchPiDrugDesign(b, 1) }
func BenchmarkPiDrugDesignThreads2(b *testing.B) { benchPiDrugDesign(b, 2) }
func BenchmarkPiDrugDesignThreads4(b *testing.B) { benchPiDrugDesign(b, 4) }

// --- E2: Colab — patternlets correct, no speedup -------------------------

// BenchmarkColabPatternlets runs the full message-passing catalog with
// np=4 on the modeled unicore VM: the first-hour experience of the
// distributed module.
func BenchmarkColabPatternlets(b *testing.B) {
	colab := cluster.ColabVM()
	catalog := patternlets.ByParadigm(patternlets.MessagePassing)
	for i := 0; i < b.N; i++ {
		for _, p := range catalog {
			err := patternlets.RunDistributedOn(p, io.Discard, func(body func(c *mpi.Comm) error) error {
				return colab.Launch(4, body)
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchVirtualJob measures a fixed amount of virtual compute split across
// np ranks on a platform; the per-op time IS the modeled makespan.
func benchVirtualJob(b *testing.B, p cluster.Platform, np int) {
	const totalUnits = 8
	const unit = 5 * time.Millisecond
	units := totalUnits / np
	if units == 0 {
		units = 1
	}
	for i := 0; i < b.N; i++ {
		if _, err := p.MeasureVirtualJob(np, units, unit); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColabVirtualNP1(b *testing.B) { benchVirtualJob(b, cluster.ColabVM(), 1) }
func BenchmarkColabVirtualNP4(b *testing.B) { benchVirtualJob(b, cluster.ColabVM(), 4) }
func BenchmarkColabVirtualNP8(b *testing.B) { benchVirtualJob(b, cluster.ColabVM(), 8) }

// --- E3: cluster/VM speedup and scalability ------------------------------

func BenchmarkStOlafVirtualNP1(b *testing.B) { benchVirtualJob(b, cluster.StOlafVM(), 1) }
func BenchmarkStOlafVirtualNP4(b *testing.B) { benchVirtualJob(b, cluster.StOlafVM(), 4) }
func BenchmarkStOlafVirtualNP8(b *testing.B) { benchVirtualJob(b, cluster.StOlafVM(), 8) }

func BenchmarkChameleonVirtualNP8(b *testing.B) { benchVirtualJob(b, cluster.Chameleon(4, 16), 8) }

// BenchmarkStOlafForestFire runs the real forest-fire sweep through the
// St. Olaf platform model (real CPU work; scales with host cores).
func benchStOlafForestFire(b *testing.B, np int) {
	st := cluster.StOlafVM()
	params := forestfire.DefaultParams()
	params.Trials = 20
	for i := 0; i < b.N; i++ {
		err := st.Launch(np, func(c *mpi.Comm) error {
			_, err := forestfire.SweepMPI(c, params)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStOlafForestFireNP1(b *testing.B) { benchStOlafForestFire(b, 1) }
func BenchmarkStOlafForestFireNP4(b *testing.B) { benchStOlafForestFire(b, 4) }

// BenchmarkChameleonDrugDesign runs the master-worker drug design on the
// Chameleon model (inter-node latency included).
func BenchmarkChameleonDrugDesignNP4(b *testing.B) {
	ch := cluster.Chameleon(4, 16)
	params := drugdesign.DefaultParams()
	params.NumLigands = 200
	for i := 0; i < b.N; i++ {
		err := ch.Launch(4, func(c *mpi.Comm) error {
			_, err := drugdesign.MPIMasterWorker(c, params)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ------------------------------------------------------------

// Schedule ablation: the imbalanced drug-design loop under each schedule.
func benchAblationSchedule(b *testing.B, sched shm.Schedule) {
	params := drugdesign.DefaultParams()
	params.NumLigands = 600
	params.MaxLigandLen = 12
	for i := 0; i < b.N; i++ {
		if _, err := drugdesign.Shared(params, 4, sched); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationScheduleStatic(b *testing.B)  { benchAblationSchedule(b, shm.Static()) }
func BenchmarkAblationScheduleCyclic(b *testing.B)  { benchAblationSchedule(b, shm.ChunksOf1()) }
func BenchmarkAblationScheduleDynamic(b *testing.B) { benchAblationSchedule(b, shm.Dynamic(1)) }
func BenchmarkAblationScheduleGuided(b *testing.B)  { benchAblationSchedule(b, shm.Guided(1)) }

// Transport ablation: the same ping-pong over in-process mailboxes vs
// loopback TCP through the hub.
func benchAblationTransport(b *testing.B, run func(int, func(c *mpi.Comm) error, ...mpi.Option) error) {
	const msgs = 50
	for i := 0; i < b.N; i++ {
		err := run(2, func(c *mpi.Comm) error {
			for m := 0; m < msgs; m++ {
				if c.Rank() == 0 {
					if err := c.Send(1, 0, m); err != nil {
						return err
					}
					if _, err := c.Recv(1, 0, nil); err != nil {
						return err
					}
				} else {
					if _, err := c.Recv(0, 0, nil); err != nil {
						return err
					}
					if err := c.Send(0, 0, m); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTransportLocal(b *testing.B) { benchAblationTransport(b, mpi.Run) }
func BenchmarkAblationTransportTCP(b *testing.B)   { benchAblationTransport(b, mpi.RunTCP) }

// Fire-sweep decomposition ablation: dynamic vs static distribution of the
// wildly imbalanced Monte Carlo trials.
func benchAblationFire(b *testing.B, sched shm.Schedule) {
	params := forestfire.DefaultParams()
	params.Trials = 30
	for i := 0; i < b.N; i++ {
		if _, err := forestfire.SweepSharedSched(params, 4, sched); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFireDecompStatic(b *testing.B)  { benchAblationFire(b, shm.Static()) }
func BenchmarkAblationFireDecompDynamic(b *testing.B) { benchAblationFire(b, shm.Dynamic(1)) }

// --- Substrate micro-benchmarks -------------------------------------------

func BenchmarkShmParallelForkJoin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		shm.Parallel(4, func(tc *shm.ThreadContext) {})
	}
}

// BenchmarkShmBarrier times one team barrier of a 4-thread region; the
// region's launch is amortized over b.N barriers.
func BenchmarkShmBarrier(b *testing.B) {
	b.ReportAllocs()
	shm.Parallel(4, func(tc *shm.ThreadContext) {
		for i := 0; i < b.N; i++ {
			tc.Barrier()
		}
	})
}

func BenchmarkMpiPingPong(b *testing.B) {
	// One benchmark op = one round trip, measured inside a persistent
	// 2-rank world via channels to the bench loop.
	type req struct{ done chan struct{} }
	work := make(chan req)
	go func() {
		_ = mpi.Run(2, func(c *mpi.Comm) error {
			if c.Rank() != 0 {
				for {
					var m int
					if _, err := c.Recv(0, mpi.AnyTag, &m); err != nil {
						return nil
					}
					if m < 0 {
						return nil
					}
					if err := c.Send(0, 0, m); err != nil {
						return nil
					}
				}
			}
			for r := range work {
				if err := c.Send(1, 0, 1); err != nil {
					return nil
				}
				if _, err := c.Recv(1, 0, nil); err != nil {
					return nil
				}
				close(r.done)
			}
			_ = c.Send(1, 0, -1)
			return nil
		})
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := req{done: make(chan struct{})}
		work <- r
		<-r.done
	}
	b.StopTimer()
	close(work)
}

func BenchmarkStatsPairedTTest(b *testing.B) {
	pre := make([]float64, 1000)
	post := make([]float64, 1000)
	for i := range pre {
		pre[i] = float64(i % 5)
		post[i] = float64(i%5) + float64(i%3)
	}
	for i := 0; i < b.N; i++ {
		if _, err := stats.PairedTTest(pre, post); err != nil {
			b.Fatal(err)
		}
	}
}

// Fire parallelization-strategy ablation: independent Monte Carlo trials
// versus domain decomposition of one large forest (with halo exchanges).
func BenchmarkAblationFireTrialParallel(b *testing.B) {
	params := forestfire.Params{Rows: 61, Cols: 61, Probs: []float64{0.6}, Trials: 4, Seed: 9}
	for i := 0; i < b.N; i++ {
		err := mpi.Run(4, func(c *mpi.Comm) error {
			_, err := forestfire.SweepMPI(c, params)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFireDomainDecomposed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		err := mpi.Run(4, func(c *mpi.Comm) error {
			for trial := 0; trial < 4; trial++ {
				if _, err := forestfire.SimulateDomainMPI(c, 61, 61, 0.6, int64(9+trial)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// Task-runtime micro-benchmark: spawn-and-drain through the team pool.
func BenchmarkShmTaskSpawnDrain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		shm.Parallel(4, func(tc *shm.ThreadContext) {
			tc.Single("spawn", func() {
				for j := 0; j < 64; j++ {
					tc.Task(func() {})
				}
			})
			tc.Taskwait()
		})
	}
}
