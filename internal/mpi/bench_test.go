package mpi

import (
	"fmt"
	"testing"
)

// Message latency by payload size through the in-process transport:
// the serialization cost learners should expect per message.
func benchPingPongPayload(b *testing.B, payload int) {
	data := make([]byte, payload)
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Send(1, 0, data); err != nil {
					return err
				}
				if _, err := c.Recv(1, 0, nil); err != nil {
					return err
				}
			}
			b.StopTimer()
			return c.Send(1, 1, true) // stop marker
		}
		for {
			// nil discards the payload without decoding, so the stop
			// marker (a bool) and the data (a byte slice) both pass.
			st, err := c.Recv(0, AnyTag, nil)
			if err != nil {
				return err
			}
			if st.Tag == 1 {
				return nil
			}
			if err := c.Send(0, 0, struct{}{}); err != nil {
				return err
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkPingPong16B(b *testing.B)  { benchPingPongPayload(b, 16) }
func BenchmarkPingPong1KB(b *testing.B)  { benchPingPongPayload(b, 1<<10) }
func BenchmarkPingPong64KB(b *testing.B) { benchPingPongPayload(b, 64<<10) }

// echoFloats is rank 1 of the gate's pingpong-8B-local op: receive a
// []float64 from rank 0 under AnyTag and send it back, until tag 1 arrives.
func echoFloats(c *Comm) error {
	var in []float64
	for {
		st, err := c.Recv(0, AnyTag, &in)
		if err != nil || st.Tag == 1 {
			return err
		}
		if err := c.Send(0, 0, in); err != nil {
			return err
		}
	}
}

// benchRoundTrip is the gate's ping-pong op as a Go benchmark, over any
// launcher and at any size: rank 0 sends elems float64 values and receives
// the echo.
func benchRoundTrip(b *testing.B, run func(int, func(*Comm) error, ...Option) error, elems int) {
	err := run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			return echoFloats(c)
		}
		send, recv := make([]float64, elems), []float64(nil)
		b.SetBytes(int64(2 * 8 * elems))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Send(1, 0, send); err != nil {
				return err
			}
			if _, err := c.Recv(1, 0, &recv); err != nil {
				return err
			}
		}
		b.StopTimer()
		return c.Send(1, 1, send)
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkRoundTripLocal8B(b *testing.B)   { benchRoundTrip(b, Run, 1) }
func BenchmarkRoundTripLocal1MiB(b *testing.B) { benchRoundTrip(b, Run, 1<<17) }
func BenchmarkRoundTripTCP8B(b *testing.B)     { benchRoundTrip(b, RunTCP, 1) }
func BenchmarkRoundTripTCP1MiB(b *testing.B)   { benchRoundTrip(b, RunTCP, 1<<17) }

// BenchmarkAlltoallvLocal80K is the exchange inside one PageRank iteration of
// the gate's pagerank-np2-local op: AlltoallvInto at np = 2 with 10 000
// float64 (78 KiB) to the peer, into a reused receive buffer. ns/op and B/op
// are one rank's call (B/op counts both ranks' allocations: halve it).
func BenchmarkAlltoallvLocal80K(b *testing.B) {
	const per = 10000
	err := Run(2, func(c *Comm) error {
		counts, send, recv := []int{per, per}, make([]float64, 2*per), make([]float64, 2*per)
		if c.Rank() == 0 {
			b.SetBytes(8 * per)
			b.ReportAllocs()
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			if err := AlltoallvInto(c, send, counts, recv, counts); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// Collective cost versus world size.
func benchBcast(b *testing.B, np int) {
	for i := 0; i < b.N; i++ {
		err := Run(np, func(c *Comm) error {
			_, err := Bcast(c, 42, 0)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBcastNP4(b *testing.B)  { benchBcast(b, 4) }
func BenchmarkBcastNP16(b *testing.B) { benchBcast(b, 16) }
func BenchmarkBcastNP64(b *testing.B) { benchBcast(b, 64) }

func BenchmarkWorldSpinUpNP8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := Run(8, func(c *Comm) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCommSplit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		err := Run(8, func(c *Comm) error {
			sub, err := c.Split(c.Rank()%2, c.Rank())
			if err != nil {
				return err
			}
			if sub.Size() != 4 {
				return fmt.Errorf("size %d", sub.Size())
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPingPongFloat64SliceFast: a 128-element []float64 ping-pong
// through the typed fast path.
func BenchmarkPingPongFloat64SliceFast(b *testing.B) {
	payload := make([]float64, 128)
	for i := range payload {
		payload[i] = float64(i)
	}
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			var got []float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Send(1, 0, payload); err != nil {
					return err
				}
				if _, err := c.Recv(1, 0, &got); err != nil {
					return err
				}
			}
			b.StopTimer()
			return nil
		}
		for i := 0; i < b.N; i++ {
			var in []float64
			if _, err := c.Recv(0, 0, &in); err != nil {
				return err
			}
			if err := c.Send(0, 0, in); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// benchCollective times one collective per iteration with every rank
// looping; collectives synchronize the ranks, so rank 0's timer covers the
// steady-state cost.
func benchCollective(b *testing.B, np int, op func(c *Comm) error) {
	err := Run(np, func(c *Comm) error {
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			if err := op(c); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			b.StopTimer()
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkAllreduceNP8(b *testing.B) {
	benchCollective(b, 8, func(c *Comm) error {
		_, err := Allreduce(c, float64(c.Rank()), Combine[float64](Sum))
		return err
	})
}

func BenchmarkBarrierNP8(b *testing.B) {
	benchCollective(b, 8, func(c *Comm) error { return c.Barrier() })
}

func BenchmarkGobEncodeDecodeRoundTrip(b *testing.B) {
	type sample struct {
		Xs   []float64
		Name string
		N    int
	}
	v := sample{Xs: make([]float64, 128), Name: "payload", N: 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := encodeValue(v)
		if err != nil {
			b.Fatal(err)
		}
		var out sample
		if err := decodeValue(data, &out); err != nil {
			b.Fatal(err)
		}
	}
}
