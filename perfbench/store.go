package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"snvmm"
	"snvmm/internal/telemetry/trace"
)

// storeConfig sizes the store-mixed workload.
type storeConfig struct {
	blocks     int     // pre-written working set, in blocks
	batchEvery int     // about one request in batchEvery is a batch
	batchOps   int     // operations per batch request
	readFrac   float64 // share of reads, for single and batch requests alike
	sample     int     // addresses checked across the power cycle
}

var storeDefault = storeConfig{blocks: 2048, batchEvery: 32, batchOps: 64, readFrac: 0.7, sample: 64}

// shadow holds each block's last-written payload; every read must return
// it.
type shadow [][]byte

func (s shadow) verify(block int, got []byte) error {
	if !bytes.Equal(got, s[block]) {
		return fmt.Errorf("block %d: read returned %x…, last write was %x…", block, prefix(got), prefix(s[block]))
	}
	return nil
}

func prefix(b []byte) []byte {
	if len(b) > 8 {
		return b[:8]
	}
	return b
}

func addrOf(block int) uint64 { return uint64(block) * snvmm.BlockSize }

// store is one served device with its shadow copy and request generator.
type store struct {
	cfg    storeConfig
	dev    *snvmm.Device
	cancel context.CancelFunc
	shadow shadow
	rng    *rand.Rand
}

// openStore is the workload's set-up: open and power on an SPE-parallel
// device, serve it with `workers` workers and pre-write the working set
// through WriteBatch. The request stream that follows continues from the
// same seeded generator, so a seed fixes every address and payload. rc,
// when enabled, receives one span per device call.
func openStore(cfg storeConfig, seed int64, workers int, rep *report, rc trace.Context) (*store, error) {
	var dev *snvmm.Device
	var err error
	timed(rc, metaOpen, func() { dev, err = snvmm.Open(snvmm.DefaultOptions()) })
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	timed(rc, metaPowerOn, func() { err = dev.PowerOn() })
	if err != nil {
		return nil, fmt.Errorf("power on: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	timed(rc, metaServe, func() { err = dev.Serve(ctx, workers, 0) })
	if err != nil {
		cancel()
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &store{cfg: cfg, dev: dev, cancel: cancel, shadow: make(shadow, cfg.blocks), rng: rand.New(rand.NewSource(seed))}
	ops := make([]snvmm.WriteOp, 0, cfg.batchOps)
	for b := 0; b < cfg.blocks; b++ {
		p := s.payload()
		s.shadow[b] = p
		ops = append(ops, snvmm.WriteOp{Addr: addrOf(b), Data: p})
		if len(ops) == cap(ops) || b == cfg.blocks-1 {
			call := rc.Start(metaWriteBatch)
			errs := dev.WriteBatch(ctx, ops)
			call.End(int64(len(ops)), 0)
			rep.ops(errs, "pre-write")
			ops = ops[:0]
		}
	}
	return s, nil
}

func (s *store) close() {
	s.dev.StopServing()
	s.cancel()
}

func (s *store) payload() []byte {
	p := make([]byte, snvmm.BlockSize)
	s.rng.Read(p)
	return p
}

// distinct draws n distinct uniform-random blocks into dst.
func (s *store) distinct(dst []int) {
	for i := range dst {
	again:
		b := s.rng.Intn(s.cfg.blocks)
		for _, o := range dst[:i] {
			if o == b {
				goto again
			}
		}
		dst[i] = b
	}
}

// storeStats are the timings of one measured phase.
type storeStats struct {
	read, write           samples // single-block requests, µs
	batchRead, batchWrite samples // batch requests, ms
	blocks                int64
	wall                  time.Duration
}

var (
	metaRequest    = meta("bench", "request")
	metaOpen       = meta("snvmm", "Open")
	metaPowerOn    = meta("snvmm", "Device.PowerOn")
	metaServe      = meta("snvmm", "Device.Serve")
	metaRead       = meta("snvmm", "Device.Read")
	metaWrite      = meta("snvmm", "Device.Write")
	metaReadBatch  = meta("snvmm", "Device.ReadBatch")
	metaWriteBatch = meta("snvmm", "Device.WriteBatch")
)

// run drives the closed loop: one client sends its next request only after
// the previous one returned, until stop reports true. Each read result is
// checked against the shadow copy; generation and checks sit outside the
// timed calls.
func (s *store) run(rep *report, st *storeStats, sp spanner, stop func(requests int, elapsed time.Duration) bool) {
	ctx := context.Background()
	blocks := make([]int, s.cfg.batchOps)
	addrs := make([]uint64, s.cfg.batchOps)
	ops := make([]snvmm.WriteOp, s.cfg.batchOps)
	start := time.Now()
	for n := 0; !stop(n, time.Since(start)); n++ {
		batch := s.rng.Intn(s.cfg.batchEvery) == 0
		read := s.rng.Float64() < s.cfg.readFrac
		root := sp.start(metaRequest)
		rc := root.Context()
		switch {
		case !batch && read:
			b := s.rng.Intn(s.cfg.blocks)
			call := rc.Start(metaRead)
			t0 := time.Now()
			got, err := s.dev.Read(addrOf(b))
			st.read.add(time.Since(t0), time.Microsecond)
			call.End(0, 0)
			if rep.op(err, "Read") {
				rep.checkErr(s.shadow.verify(b, got))
			}
			st.blocks++
		case !batch:
			b := s.rng.Intn(s.cfg.blocks)
			p := s.payload()
			call := rc.Start(metaWrite)
			t0 := time.Now()
			err := s.dev.Write(addrOf(b), p)
			st.write.add(time.Since(t0), time.Microsecond)
			call.End(0, 0)
			if rep.op(err, "Write") {
				s.shadow[b] = p
			}
			st.blocks++
		case read:
			s.distinct(blocks)
			for i, b := range blocks {
				addrs[i] = addrOf(b)
			}
			call := rc.Start(metaReadBatch)
			t0 := time.Now()
			res := s.dev.ReadBatch(ctx, addrs)
			st.batchRead.add(time.Since(t0), time.Millisecond)
			call.End(int64(len(addrs)), 0)
			for i, r := range res {
				if rep.op(r.Err, "ReadBatch") {
					rep.checkErr(s.shadow.verify(blocks[i], r.Data))
				}
			}
			st.blocks += int64(len(addrs))
		default:
			s.distinct(blocks)
			for i, b := range blocks {
				ops[i] = snvmm.WriteOp{Addr: addrOf(b), Data: s.payload()}
			}
			call := rc.Start(metaWriteBatch)
			t0 := time.Now()
			errs := s.dev.WriteBatch(ctx, ops)
			st.batchWrite.add(time.Since(t0), time.Millisecond)
			call.End(int64(len(ops)), 0)
			for i, err := range errs {
				if rep.op(err, "WriteBatch") {
					s.shadow[blocks[i]] = ops[i].Data
				}
			}
			st.blocks += int64(len(ops))
		}
		root.End(0, 0)
	}
	st.wall += time.Since(start)
}

// powerCycle checks the at-rest guarantee: after PowerOff, Steal on a
// sample of addresses must not return the plaintext, and after the next
// PowerOn the same addresses must read back.
func (s *store) powerCycle(rep *report) {
	sample := make([]int, s.cfg.sample)
	s.distinct(sample)
	if !rep.op(s.dev.PowerOff(), "PowerOff") {
		return
	}
	for _, b := range sample {
		raw, err := s.dev.Steal(addrOf(b))
		if rep.op(err, "Steal") {
			rep.check(!bytes.Equal(raw, s.shadow[b]), "block %d: Steal after PowerOff returned the plaintext", b)
		}
	}
	if !rep.op(s.dev.PowerOn(), "PowerOn") {
		return
	}
	for _, b := range sample {
		got, err := s.dev.Read(addrOf(b))
		if rep.op(err, "Read after PowerOn") {
			rep.checkErr(s.shadow.verify(b, got))
		}
	}
}

// storeMetrics reports the phase's end-to-end numbers.
func storeMetrics(rep *report, st *storeStats) {
	r, w := st.read.sorted(), st.write.sorted()
	br, bw := st.batchRead.sorted(), st.batchWrite.sorted()
	single := append(append(samples(nil), st.read...), st.write...).sorted()
	bps := float64(st.blocks) / st.wall.Seconds()
	rep.set("work_per_s", bps, "1/s")
	rep.set("p50_ms", percentile(single, 50)/1000, "ms")
	rep.set("store.blocks_per_s", bps, "blocks/s")
	rep.set("store.read_p50_us", percentile(r, 50), "us")
	tailMetric(rep, "store.read_p99_us", r, "us")
	rep.set("store.write_p50_us", percentile(w, 50), "us")
	tailMetric(rep, "store.write_p99_us", w, "us")
	rep.set("store.batch_read_p50_ms", percentile(br, 50), "ms")
	rep.set("store.batch_write_p50_ms", percentile(bw, 50), "ms")
	tailMetric(rep, "store.batch_p99_ms", append(append(samples(nil), st.batchRead...), st.batchWrite...).sorted(), "ms")
	rep.set("store.samples.read", float64(len(r)), "count")
	rep.set("store.samples.write", float64(len(w)), "count")
	rep.set("store.samples.batch_read", float64(len(br)), "count")
	rep.set("store.samples.batch_write", float64(len(bw)), "count")
}

// tailMetric reports the tail rule's value under name and the percentile
// it landed on under name + ".pct" (99 when enough samples exist).
func tailMetric(rep *report, name string, sorted []float64, unit string) {
	pct, v, ok := tail(sorted)
	if !ok {
		return // fewer than the 11 samples a tail needs
	}
	rep.set(name, v, unit)
	rep.set(name+".pct", pct, "percentile")
}
