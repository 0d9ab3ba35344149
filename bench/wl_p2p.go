package main

import (
	"math/rand"
	"time"

	"repro/internal/mpi"
)

// The four point-to-point workloads: rank 0 sends a []float64 to rank 1 and
// waits for it to come back, over each of the three transports.

const (
	tagData = 0
	tagStop = 1
)

type runFunc func(np int, main func(c *mpi.Comm) error, opts ...mpi.Option) error

type p2pSpec struct {
	name  string
	layer string  // metric prefix: mpi, tcp or shmt
	start string  // name of the layer's world-formation metric
	run   runFunc // mpi.Run, mpi.RunTCP or mpi.RunShm
	trips int     // round trips per op
	elems int     // float64 values per message
}

// open runs the world; rank 0 hands body a session, rank 1 echoes until told
// to stop.
func (p p2pSpec) open(payload []float64, body func(*session) error, opts ...mpi.Option) error {
	return p.run(2, func(c *mpi.Comm) error {
		if c.Rank() == 1 {
			var in []float64
			for {
				st, err := c.Recv(0, mpi.AnyTag, &in)
				if err != nil {
					return err
				}
				if st.Tag == tagStop {
					return nil
				}
				if err := c.Send(0, tagData, in); err != nil {
					return err
				}
			}
		}
		send := append([]float64(nil), payload...)
		var recv []float64
		last := p.elems - 1
		seq := 0.0
		s := &session{
			op: func(tr *recorder) error {
				o := tr.begin(p.name)
				for i := 0; i < p.trips; i++ {
					seq++
					send[0], send[last] = seq, seq
					t := o.now()
					if err := c.Send(1, tagData, send); err != nil {
						return err
					}
					t = o.child(p.layer+".send", t)
					if _, err := c.Recv(1, tagData, &recv); err != nil {
						return err
					}
					o.child(p.layer+".recv_wait", t)
					if len(recv) != p.elems || recv[0] != seq || recv[last] != seq {
						return wrongf("%s: round trip %v came back changed", p.name, seq)
					}
				}
				o.done()
				return nil
			},
			verify: func() error {
				if len(recv) != len(send) {
					return wrongf("%s: echo has %d values, sent %d", p.name, len(recv), len(send))
				}
				for i := range send {
					if recv[i] != send[i] {
						return wrongf("%s: echo differs at value %d", p.name, i)
					}
				}
				return nil
			},
		}
		err := body(s)
		if serr := c.Send(1, tagStop, []float64(nil)); err == nil {
			err = serr
		}
		return err
	}, opts...)
}

func (p p2pSpec) build(seed int64, newYard func() (func() error, func(), error)) *workload {
	rng := rand.New(rand.NewSource(seed))
	payload := make([]float64, p.elems)
	for i := range payload {
		payload[i] = rng.Float64()
	}
	noop := func(c *mpi.Comm) error { return nil }
	return &workload{
		newYard: newYard,
		open:    func(body func(*session) error) error { return p.open(payload, body) },
		probe: func(ps *passStats, budget time.Duration) (map[string]float64, error) {
			m := map[string]float64{}
			// World formation alone: no op, no yardstick.
			form, err := medianOf(7, func() error { return p.run(2, noop) })
			if err != nil {
				return nil, err
			}
			m[p.start] = form
			bytesPerOp := float64(2 * p.trips * p.elems * 8)
			if p.layer != "mpi" {
				m[p.layer+".mib_per_s"] = bytesPerOp / (1 << 20) / (ps.OpP50Us / 1e6)
			}
			switch p.layer {
			case "tcp":
				m["tcp.syscalls_per_op"] = ps.SyscallsPerOp
			case "mpi":
				// Message and byte counts come from a world of their own: the
				// counter wraps the transport, so it must not be in a timed one.
				const ops = 3
				mc := mpi.NewMessageCounter()
				err := p.open(payload, func(s *session) error {
					for i := 0; i < ops; i++ {
						if err := s.op(nil); err != nil {
							return err
						}
					}
					return nil
				}, mpi.WithCounter(mc))
				if err != nil {
					return nil, err
				}
				// The stop message is the one frame that belongs to no op.
				m["mpi.msgs_per_op"] = float64(mc.Total()-1) / ops
				m["mpi.bytes_per_op"] = float64(mc.Bytes()) / ops
			}
			return m, nil
		},
	}
}

func buildPingpongLocal(seed int64) (*workload, error) {
	p := p2pSpec{name: "pingpong-8B-local", layer: "mpi", start: "mpi.world_start_us", run: mpi.Run, trips: 1000, elems: 1}
	return p.build(seed, func() (func() error, func(), error) {
		e := newChanEcho()
		return func() error { return e.roundTrips(p.trips) }, e.close, nil
	}), nil
}

// relayYard is the TCP workloads' yardstick: as many echoes of as many bytes
// as the op's round trips, through the relay.
func (p p2pSpec) relayYard() (func() error, func(), error) {
	r, err := newRelayEcho(8 * p.elems)
	if err != nil {
		return nil, nil, err
	}
	return func() error { return r.echoes(p.trips) }, r.close, nil
}

func buildPingpongTCP(seed int64) (*workload, error) {
	p := p2pSpec{name: "pingpong-8B-tcp", layer: "tcp", start: "tcp.world_form_us", run: mpi.RunTCP, trips: 100, elems: 1}
	return p.build(seed, p.relayYard), nil
}

func buildStreamTCP(seed int64) (*workload, error) {
	p := p2pSpec{name: "stream-1MiB-tcp", layer: "tcp", start: "tcp.world_form_us", run: mpi.RunTCP, trips: 1, elems: 1 << 17}
	return p.build(seed, p.relayYard), nil
}

func buildStreamShm(seed int64) (*workload, error) {
	p := p2pSpec{name: "stream-1MiB-shm", layer: "shmt", start: "shmt.world_form_us", run: mpi.RunShm, trips: 1, elems: 1 << 17}
	return p.build(seed, func() (func() error, func(), error) {
		c := newCopyTwice(8 * p.elems)
		return func() error { c.run(); return nil }, func() {}, nil
	}), nil
}
