package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// refPayload is the size of one reference round trip's message, near a
// hot query's request-plus-answer size on the wire.
const refPayload = 1024

// refNominal is the reference iteration time that end-to-end figures are
// scaled to: about what one iteration takes on a quiet 2-vCPU virtual
// machine with GOMAXPROCS=1.
const refNominal = 16 * time.Microsecond

// reference is the benchmark's host-speed yardstick. It is fixed work
// that uses none of InfoGram's code but the same resources an operation
// does: a loopback TCP round trip between two goroutines and a hash over
// the reply. It allocates nothing, so the service's heap and GC do not
// slow it. Timed beside a measured window — interleaved with the lat
// phase's operations, in short runs around cap windows and set-ups — it
// shows how fast the host runs at that moment, and the window's figures
// are scaled by refNominal over the reference time: a busier or slower
// host moves both, an InfoGram change moves only the measured window.
type reference struct {
	pairs []*refPair
	wg    sync.WaitGroup
}

type refPair struct {
	client, server net.Conn
	buf            []byte
}

// setupRefDur is the length of the reference runs on either side of each
// set-up.
const setupRefDur = 40 * time.Millisecond

// setupTime is one deployment's set-up time, as measured and scaled to
// the nominal host speed.
type setupTime struct{ raw, scaled time.Duration }

// refSample is one reference run: wall and process CPU time per
// iteration, all pairs together.
type refSample struct {
	wall, cpu time.Duration
}

// The reference figures a measured figure can be scaled by.
func refWall(s refSample) time.Duration { return s.wall }
func refCPU(s refSample) time.Duration  { return s.cpu }

// slowdown is how much slower than nominal the host ran between two
// reference runs, by the figure f of each: 1 at nominal speed, 2 at half
// of it.
func slowdown(before, after refSample, f func(refSample) time.Duration) float64 {
	return (float64(f(before)) + float64(f(after))) / 2 / float64(refNominal)
}

// newReference connects n loopback pairs, each with an echo goroutine.
func newReference(n int) (*reference, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	r := &reference{}
	for i := 0; i < n; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			r.close()
			return nil, err
		}
		s, err := ln.Accept()
		if err != nil {
			c.Close()
			r.close()
			return nil, err
		}
		r.pairs = append(r.pairs, &refPair{client: c, server: s, buf: make([]byte, refPayload)})
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			buf := make([]byte, refPayload)
			for {
				if _, err := io.ReadFull(s, buf); err != nil {
					return
				}
				if _, err := s.Write(buf); err != nil {
					return
				}
			}
		}()
	}
	return r, nil
}

// run drives every pair closed-loop for dur.
func (r *reference) run(dur time.Duration) (refSample, error) {
	errs := make([]error, len(r.pairs))
	iters := make([]int, len(r.pairs))
	var wg sync.WaitGroup
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(dur)
	for i, p := range r.pairs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if errs[i] = p.iterate(); errs[i] != nil {
					return
				}
				iters[i]++
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	cpu := processCPU() - cpu0
	n := 0
	for i := range r.pairs {
		if errs[i] != nil {
			return refSample{}, errs[i]
		}
		n += iters[i]
	}
	if n == 0 {
		return refSample{}, fmt.Errorf("reference: no iteration in %s", dur)
	}
	return refSample{wall: wall / time.Duration(n), cpu: cpu / time.Duration(n)}, nil
}

// once runs one iteration on the first pair and returns its latency.
func (r *reference) once() (time.Duration, error) {
	t := time.Now()
	err := r.pairs[0].iterate()
	return time.Since(t), err
}

// iterate is one reference iteration: a round trip, then a hash over the
// reply whose first byte goes back into the next message.
func (p *refPair) iterate() error {
	if _, err := p.client.Write(p.buf); err != nil {
		return err
	}
	if _, err := io.ReadFull(p.client, p.buf); err != nil {
		return err
	}
	sum := sha256.Sum256(p.buf)
	p.buf[0] = sum[0]
	return nil
}

// close shuts every pair and waits for the echo goroutines.
func (r *reference) close() {
	for _, p := range r.pairs {
		p.client.Close()
		p.server.Close()
	}
	r.wg.Wait()
}
