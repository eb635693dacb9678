package prng

import (
	"bytes"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewKeyMasks(t *testing.T) {
	k := NewKey(^uint64(0), ^uint64(0))
	if k.Address >= 1<<SeedBits || k.Voltage >= 1<<SeedBits {
		t.Errorf("key not masked to %d bits: %+v", SeedBits, k)
	}
}

func TestKeyBytesRoundTrip(t *testing.T) {
	f := func(a, v uint64) bool {
		k := NewKey(a, v)
		k2, err := KeyFromBytes(k.Bytes())
		return err == nil && k2 == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestKeyFromBytesLength(t *testing.T) {
	if _, err := KeyFromBytes(make([]byte, 10)); err == nil {
		t.Error("expected length error")
	}
}

func TestKeyBytesLayout(t *testing.T) {
	// Address = all ones, voltage = 0: first 44 bits set, rest clear.
	k := NewKey((1<<SeedBits)-1, 0)
	b := k.Bytes()
	want := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xf0, 0, 0, 0, 0, 0}
	if !bytes.Equal(b, want) {
		t.Errorf("bytes = %x, want %x", b, want)
	}
}

func TestFlipBit(t *testing.T) {
	k := NewKey(0, 0)
	for i := 0; i < KeyBits; i++ {
		f := k.FlipBit(i)
		if f == k {
			t.Errorf("FlipBit(%d) did not change key", i)
		}
		if f.FlipBit(i) != k {
			t.Errorf("FlipBit(%d) not involutive", i)
		}
		// Exactly one bit differs in the byte encoding.
		diff := 0
		kb, fb := k.Bytes(), f.Bytes()
		for j := range kb {
			x := kb[j] ^ fb[j]
			for ; x != 0; x &= x - 1 {
				diff++
			}
		}
		if diff != 1 {
			t.Errorf("FlipBit(%d) changed %d bits", i, diff)
		}
	}
}

func TestFlipBitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewKey(0, 0).FlipBit(KeyBits)
}

func TestGenDeterministic(t *testing.T) {
	g1, g2 := NewGen(42), NewGen(42)
	for i := 0; i < 100; i++ {
		if g1.Uint64() != g2.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestGenSeedSensitivity(t *testing.T) {
	// Adjacent seeds must diverge immediately after warm-up.
	g1, g2 := NewGen(1000), NewGen(1001)
	same := 0
	for i := 0; i < 64; i++ {
		if g1.Uint64() == g2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/64 outputs collide for adjacent seeds", same)
	}
}

func TestGenZeroSeedWorks(t *testing.T) {
	g := NewGen(0)
	a, b := g.Uint64(), g.Uint64()
	if a == 0 && b == 0 {
		t.Error("zero seed produced zero stream")
	}
}

func TestGenBitBalance(t *testing.T) {
	// Monobit sanity: ~50% ones over 64k bits.
	g := NewGen(7)
	bits := make([]uint8, 1<<16)
	g.Bits(bits)
	ones := 0
	for _, b := range bits {
		if b > 1 {
			t.Fatalf("bit value %d", b)
		}
		ones += int(b)
	}
	frac := float64(ones) / float64(len(bits))
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("ones fraction %g too far from 0.5", frac)
	}
}

func TestGenSerialCorrelation(t *testing.T) {
	// Lag-1 bit correlation should be near zero.
	g := NewGen(99)
	bits := make([]uint8, 1<<16)
	g.Bits(bits)
	agree := 0
	for i := 1; i < len(bits); i++ {
		if bits[i] == bits[i-1] {
			agree++
		}
	}
	frac := float64(agree) / float64(len(bits)-1)
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("lag-1 agreement %g too far from 0.5", frac)
	}
}

func TestIntnUniform(t *testing.T) {
	g := NewGen(5)
	const n = 10
	counts := make([]int, n)
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := g.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if math.Abs(float64(c)-draws/n) > 500 {
			t.Errorf("value %d drawn %d times, want ~%d", v, c, draws/n)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewGen(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	g := NewGen(11)
	for _, n := range []int{1, 2, 16, 64} {
		p := g.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermVariesWithSeed(t *testing.T) {
	p1 := NewGen(1).Perm(16)
	p2 := NewGen(2).Perm(16)
	same := true
	for i := range p1 {
		if p1[i] != p2[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds gave identical permutations")
	}
}

func TestDeriveSchedule(t *testing.T) {
	k := NewKey(123, 456)
	s := DeriveSchedule(k, 16, 32)
	if len(s.Order) != 16 || len(s.Classes) != 16 {
		t.Fatalf("schedule sizes %d/%d", len(s.Order), len(s.Classes))
	}
	seen := make([]bool, 16)
	for _, v := range s.Order {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Errorf("order misses PoE %d", i)
		}
	}
	for _, c := range s.Classes {
		if c < 0 || c >= 32 {
			t.Errorf("class %d out of range", c)
		}
	}
	// Deterministic.
	s2 := DeriveSchedule(k, 16, 32)
	for i := range s.Order {
		if s.Order[i] != s2.Order[i] || s.Classes[i] != s2.Classes[i] {
			t.Fatal("schedule not deterministic")
		}
	}
}

func TestDeriveScheduleKeySeparation(t *testing.T) {
	// Changing only the voltage seed must not change the PoE order, and
	// vice versa (the two PRNG paths of Fig. 1b are independent).
	k := NewKey(77, 88)
	s1 := DeriveSchedule(k, 16, 32)
	s2 := DeriveSchedule(NewKey(77, 999), 16, 32)
	for i := range s1.Order {
		if s1.Order[i] != s2.Order[i] {
			t.Error("voltage seed changed PoE order")
			break
		}
	}
	s3 := DeriveSchedule(NewKey(555, 88), 16, 32)
	for i := range s1.Classes {
		if s1.Classes[i] != s3.Classes[i] {
			t.Error("address seed changed pulse classes")
			break
		}
	}
}

func TestMulmod61(t *testing.T) {
	// Check against big-number identity on selected values.
	cases := [][3]uint64{
		{0, 5, 0},
		{1, m61 - 1, m61 - 1},
		{2, 1 << 60, (1 << 61) % m61},
		{m61 - 1, m61 - 1, 1}, // (-1)*(-1) = 1 mod p
	}
	for _, c := range cases {
		if got := mulmod61(c[0], c[1]); got != c[2] {
			t.Errorf("mulmod61(%d,%d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
}

func TestMulmod61MatchesBig(t *testing.T) {
	// Random operands below 2^61, plus the edges of that range.
	p := new(big.Int).SetUint64(m61)
	rng := rand.New(rand.NewSource(61))
	check := func(a, b uint64) {
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, p)
		if got := mulmod61(a, b); got != want.Uint64() {
			t.Fatalf("mulmod61(%#x, %#x) = %#x, want %#x", a, b, got, want.Uint64())
		}
	}
	edges := []uint64{0, 1, 2, 7, 8, 1 << 60, m61 - 1, m61, 1<<61 - 2}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	for i := 0; i < 100000; i++ {
		check(rng.Uint64()>>3, rng.Uint64()>>3)
	}
}

// refGen is the generator as first written: a software 128-bit product
// and a modulo reduction at every step. It is the oracle the division-free
// Gen must match bit for bit.
type refGen struct{ s1, s2 uint64 }

func newRefGen(seed uint64) *refGen {
	mix := func(x uint64) uint64 {
		x += 0x9E3779B97F4A7C15
		x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
		x = (x ^ x>>27) * 0x94D049BB133111EB
		return x ^ x>>31
	}
	r := &refGen{s1: mix(seed) % m61, s2: mix(seed^0xA5A5A5A55A5A5A5A) % m61}
	if r.s1 == 0 {
		r.s1 = 0x1234567
	}
	if r.s2 == 0 {
		r.s2 = 0x89ABCDE
	}
	for i := 0; i < 16; i++ {
		r.step()
	}
	return r
}

func refMul128(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	carry := t >> 32
	t = aHi*bLo + carry
	u := t & mask
	v := t >> 32
	t = aLo*bHi + u
	lo |= (t & mask) << 32
	hi = aHi*bHi + v + t>>32
	return
}

func refMulmod61(a, b uint64) uint64 {
	hi, lo := refMul128(a, b)
	r := (lo & m61) + (lo >> 61) + hi*8%m61
	for r >= m61 {
		r -= m61
	}
	return r
}

func (g *refGen) step() uint64 {
	g.s1 = (refMulmod61(a1, g.s1) + c1 + g.s2%1024) % m61
	g.s2 = (refMulmod61(a2, g.s2) + c2 + g.s1%1024) % m61
	return g.s1 ^ (g.s2 << 3) ^ (g.s2 >> 7)
}

func (g *refGen) Uint64() uint64 { return g.step()<<32 ^ g.step() }

func (g *refGen) Intn(n int) int {
	bound := uint64(n)
	limit := ^uint64(0) - ^uint64(0)%bound
	for {
		v := g.Uint64()
		if v < limit {
			return int(v % bound)
		}
	}
}

func TestGenMatchesReference(t *testing.T) {
	// Bounds near 2^63 put most draws past ^0-bound, onto the path that
	// computes the rejection limit, and reject some of them.
	bounds := []int{1, 2, 3, 10, 1000, 393216, 1<<62 + 1, math.MaxInt64 - 1, math.MaxInt64}
	rng := rand.New(rand.NewSource(5000))
	seeds := 1000
	if testing.Short() {
		seeds = 100
	}
	for i := 0; i < seeds; i++ {
		seed := rng.Uint64()
		if i < 4 {
			seed = []uint64{0, 1, 0xD1CEBEEF, ^uint64(0)}[i]
		}
		g, r := NewGen(seed), newRefGen(seed)
		for d := 0; d < 5000; d++ {
			if d%3 == 0 {
				n := bounds[d/3%len(bounds)]
				if got, want := g.Intn(n), r.Intn(n); got != want {
					t.Fatalf("seed %#x draw %d: Intn(%d) = %d, reference %d", seed, d, n, got, want)
				}
				continue
			}
			if got, want := g.Uint64(), r.Uint64(); got != want {
				t.Fatalf("seed %#x draw %d: Uint64 = %#x, reference %#x", seed, d, got, want)
			}
		}
	}
}

// The history goldens pin the stream itself; any change to the generator
// moves every SPE schedule and ciphertext.
func TestGenGoldenStream(t *testing.T) {
	want := map[uint64][8]uint64{
		0:          {0x6d2e7529c89c367b, 0xa10187d490367eae, 0xf9ce3e3c14c7b215, 0x28d5d3236b76333f, 0xdb53be12946fdc97, 0x3bb05170bd52ffc3, 0xcb703c5d43310adf, 0x2bad8fa609c3891b},
		1:          {0x25f021e2f4d13f4, 0xaa20a2ac0ba58f76, 0x7f0c188e79ecc20e, 0xd31658fe45b24d1c, 0x3de5e0ec26c1eb5a, 0x3c461571816f74a2, 0xec7591ece900a7c7, 0x59a1ca5a1ce4b44c},
		0xD1CEBEEF: {0xabd01e8b12503f91, 0x2b9a57352167f01a, 0xbe8b7b21e5c58624, 0x842cdf28ba0fbe45, 0x2898cb2710535f82, 0x2466ec8deef94211, 0xdc31704219176ee4, 0xcc104e9a754aadcb},
		^uint64(0): {0x17316b2a913c0b75, 0x35a2127e4f3538f3, 0x69f88cd95a326f9e, 0x83de68e83b3d8676, 0x90720e8c39f9cec4, 0xceba0e5e951be93b, 0xeb01d174f25c9a56, 0x2b82e0eebdad5e8c},
	}
	for seed, w := range want {
		g := NewGen(seed)
		for i, v := range w {
			if got := g.Uint64(); got != v {
				t.Errorf("seed %#x draw %d = %#x, want %#x", seed, i, got, v)
			}
		}
	}
}

func TestIntnGolden(t *testing.T) {
	want := map[int][8]int{
		2:         {1, 0, 1, 0, 1, 0, 1, 1},
		10:        {1, 0, 1, 2, 3, 6, 5, 9},
		393216:    {377409, 386212, 28151, 148078, 270745, 326910, 326447, 236871},
		1<<62 + 1: {2407474232923251875, 2579979762096303606, 1302888636831253102, 3811780180571201943, 2179482482725551356, 1005239639873526959, 862912359702864022, 2234654139443845561},
	}
	for n, w := range want {
		g := NewGen(42)
		for i, v := range w {
			if got := g.Intn(n); got != v {
				t.Errorf("Intn(%d) draw %d = %d, want %d", n, i, got, v)
			}
		}
	}
}

func TestPermGolden(t *testing.T) {
	want := []int{4, 7, 1, 11, 15, 10, 5, 9, 3, 12, 0, 2, 13, 6, 8, 14}
	if got := NewGen(7).Perm(16); !reflect.DeepEqual(got, want) {
		t.Errorf("Perm(16) = %v, want %v", got, want)
	}
}

func TestDeriveScheduleGolden(t *testing.T) {
	s := DeriveSchedule(NewKey(555, 88), 16, 32)
	wantOrder := []int{5, 8, 6, 7, 9, 11, 3, 4, 13, 0, 12, 14, 15, 2, 1, 10}
	wantClasses := []int{22, 12, 10, 24, 24, 4, 10, 8, 25, 3, 23, 2, 25, 31, 20, 18}
	if !reflect.DeepEqual(s.Order, wantOrder) || !reflect.DeepEqual(s.Classes, wantClasses) {
		t.Errorf("schedule = %v / %v, want %v / %v", s.Order, s.Classes, wantOrder, wantClasses)
	}
}
