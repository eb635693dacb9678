package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"snvmm/internal/core"
	"snvmm/internal/nist"
	"snvmm/internal/poe"
	"snvmm/internal/prng"
	"snvmm/internal/telemetry/trace"
	"snvmm/internal/xbar"
)

// table1Slacks are the security slacks of the paper's Table 1.
var table1Slacks = []int{0, 32, 48, 56}

// tablesConfig sizes Table 2: sequences per data set and bits per
// sequence. Two sequences is the smallest count for which a cell can fail
// nist.MaxAllowedFailures (one sequence allows one failure).
type tablesConfig struct {
	seqs int
	bits int
}

var tablesDefault = tablesConfig{seqs: 2, bits: 4000}

// table1MaxNodes is the node limit the reproduction's Table 1 runs with.
const table1MaxNodes = 100000

// tables holds the engine and builder the passes share.
type tables struct {
	cfg tablesConfig
	eng *core.Engine
	b   *nist.Builder
}

// setupTables is the workload's set-up: the paper's engine (its placement
// solved at the default slack) and a data-set builder on it. One cipher
// encryption fills the process-wide calibration that the unvaried data
// sets share, so the passes time steady-state work.
func setupTables(cfg tablesConfig) (*tables, error) {
	eng, err := core.NewEngine(core.DefaultParams())
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	c, err := core.NewCipher(eng, 0)
	if err != nil {
		return nil, fmt.Errorf("cipher: %w", err)
	}
	if _, err := c.Encrypt(prng.NewKey(1, 1), make([]byte, c.BlockBytes())); err != nil {
		return nil, fmt.Errorf("cipher: %w", err)
	}
	return &tables{cfg: cfg, eng: eng, b: nist.NewBuilder(eng)}, nil
}

// tablesPass is what one pass measured and produced.
type tablesPass struct {
	wall      time.Duration
	table1    time.Duration
	buildHW   time.Duration
	buildRest time.Duration
	suite     time.Duration
	cipher    time.Duration
	seqs      [][]uint8 // every data set's sequences, in AllDataSets order
}

var (
	metaTablesPass = meta("bench", "tables_pass")
	metaSolve      = meta("poe", "Solve")
	metaBuild      = meta("nist", "Builder.Build")
	metaRunBatch   = meta("nist", "RunBatch")
	metaNewCipher  = meta("core", "NewCipher")
	metaCipherEnc  = meta("core", "Cipher.Encrypt")
	metaCipherDec  = meta("core", "Cipher.Decrypt")
)

// pass reproduces Table 1 and the reduced Table 2 once and checks both,
// plus one cipher round trip. The data sets and the round trip's key and
// plaintext come from seed.
func (t *tables) pass(rep *report, seed int64, sp spanner) tablesPass {
	var p tablesPass
	root := sp.start(metaTablesPass)
	rc := root.Context()
	start := time.Now()

	cfg := xbar.DefaultConfig()
	for _, s := range table1Slacks {
		var res *poe.Result
		var err error
		p.table1 += timed(rc, metaSolve, func() { res, err = poe.Solve(poe.Spec{Cfg: cfg, S: s, MaxNodes: table1MaxNodes}) })
		if rep.op(err, fmt.Sprintf("Table 1 S=%d", s)) && s == core.DefaultSecuritySlack {
			rep.check(len(res.PoEs) == 16, "Table 1 S=%d placed %d PoEs, want 16", s, len(res.PoEs))
		}
	}

	spec := nist.DataSetSpec{Sequences: t.cfg.seqs, SeqBits: t.cfg.bits, Seed: seed}
	allowed := nist.MaxAllowedFailures(spec.Sequences)
	for _, ds := range nist.AllDataSets {
		var seqs [][]uint8
		var err error
		d := timed(rc, metaBuild, func() { seqs, err = t.b.Build(ds, spec) })
		if ds == nist.HWAvalanche {
			p.buildHW += d
		} else {
			p.buildRest += d
		}
		if !rep.op(err, fmt.Sprintf("Build %s", ds)) {
			continue
		}
		p.seqs = append(p.seqs, seqs...)
		var br nist.BatchResult
		p.suite += timed(rc, metaRunBatch, func() { br = nist.RunBatch(seqs) })
		rep.attempted++
		for _, test := range nist.TestNames {
			rep.check(br.Failures[test] <= allowed, "Table 2 %s/%s: %d of %d sequences failed, allowed %d",
				ds, test, br.Failures[test], spec.Sequences, allowed)
		}
	}

	t0 := time.Now()
	t.roundTrip(rep, seed, rc)
	p.cipher = time.Since(t0)
	p.wall = time.Since(start)
	root.End(0, 0)
	return p
}

// roundTrip checks that a Cipher decrypts its own ciphertext back to the
// plaintext, under a key and plaintext drawn from seed.
func (t *tables) roundTrip(rep *report, seed int64, rc trace.Context) {
	rng := rand.New(rand.NewSource(seed))
	var c *core.Cipher
	var err error
	timed(rc, metaNewCipher, func() { c, err = core.NewCipher(t.eng, seed) })
	if !rep.op(err, "NewCipher") {
		return
	}
	key := prng.NewKey(rng.Uint64(), rng.Uint64())
	pt := make([]byte, c.BlockBytes())
	rng.Read(pt)
	var ct, back []byte
	timed(rc, metaCipherEnc, func() { ct, err = c.Encrypt(key, pt) })
	if !rep.op(err, "Cipher.Encrypt") {
		return
	}
	timed(rc, metaCipherDec, func() { back, err = c.Decrypt(key, ct) })
	if rep.op(err, "Cipher.Decrypt") {
		rep.check(bytes.Equal(back, pt), "Cipher round trip returned %x, want %x", back, pt)
	}
}
