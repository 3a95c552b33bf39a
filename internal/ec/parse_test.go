package ec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ecgraph/internal/tensor"
)

// parseTrialMatrix draws a rows×cols matrix from one of the value shapes
// responders meet: uniform, zero-centred gradients of varying magnitude,
// and degenerate (constant or all-zero) domains.
func parseTrialMatrix(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	switch rng.Intn(4) {
	case 0:
		for i := range m.Data {
			m.Data[i] = rng.Float32()
		}
	case 1:
		scale := float32(math.Pow(10, float64(rng.Intn(9)-6)))
		for i := range m.Data {
			m.Data[i] = float32(rng.NormFloat64()) * scale
		}
	case 2:
		c := float32(rng.NormFloat64())
		for i := range m.Data {
			m.Data[i] = c
		}
	}
	return m
}

// checkParsersAgree requires ParsePacked to return exactly one of rows or a
// packed payload, and that result — decoded with Blocked.Dense when packed
// — to equal ParseMatrix's rows bit for bit.
func checkParsersAgree(t *testing.T, name string, payload []byte) {
	t.Helper()
	want := ParseMatrix(payload)
	rows, blk := ParsePacked(payload)
	if (rows == nil) == (blk == nil) {
		t.Fatalf("%s: ParsePacked returned rows=%v packed=%v, want exactly one", name, rows != nil, blk != nil)
	}
	got := rows
	if blk != nil {
		got = blk.Dense()
	}
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: ParsePacked shape %dx%d, ParseMatrix %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d: ParsePacked %v, ParseMatrix %v", name, i, got.Data[i], want.Data[i])
		}
	}
}

// parsePayloadTrial emits one payload from every responder whose output
// ParseMatrix decodes, on matrices drawn from rng, and checks both parsers
// agree on each. The error-feedback responders run several rounds so their
// payloads carry accumulated residuals.
func parsePayloadTrial(t *testing.T, rng *rand.Rand) {
	rows, cols := 1+rng.Intn(40), 1+rng.Intn(24)
	m := parseTrialMatrix(rng, rows, cols)
	checkParsersAgree(t, "raw", RespondRaw(m))
	for _, bits := range []int{1, 2, 4, 8} {
		checkParsersAgree(t, fmt.Sprintf("compress B=%d", bits), RespondCompressOnly(m, bits))
	}
	bits := []int{1, 2, 4, 8}[rng.Intn(4)]
	checkParsersAgree(t, fmt.Sprintf("compress-grad B=%d", bits), RespondCompressOnlyGrad(m, bits))
	resec, topk := NewBackwardResponder(), NewTopKResponder(bits)
	for round := 0; round < 3; round++ {
		g := parseTrialMatrix(rng, rows, cols)
		checkParsersAgree(t, fmt.Sprintf("resec B=%d round %d", bits, round), resec.Respond(g, bits))
		checkParsersAgree(t, fmt.Sprintf("topk B=%d round %d", bits, round), topk.Respond(g))
	}
}

// TestParsePackedMatchesParseMatrix is the seeded property behind the
// worker's single ghost merge: whichever PackedSpMM setting a run uses,
// ghost rows come from ParsePacked, so it must reproduce ParseMatrix
// bitwise on every payload a responder emits.
func TestParsePackedMatchesParseMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	for trial := 0; trial < 200; trial++ {
		parsePayloadTrial(t, rng)
	}
}

// FuzzParsePackedMatchesParseMatrix fuzzes the same property over
// arbitrary seeds; plain `go test` runs the seed corpus, `-fuzz` explores
// further.
func FuzzParsePackedMatchesParseMatrix(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 4096, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		parsePayloadTrial(t, rand.New(rand.NewSource(seed)))
	})
}
