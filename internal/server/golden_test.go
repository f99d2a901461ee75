package server

import (
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// TestValueEncodingGolden pins the bytes of every value type, FLOAT edge
// values included, through the heap/WAL codec and the wire frame encoder.
// The hex was produced by the layout that kept a FLOAT in a float64 field of
// its own; the two encoders share the tag discipline, so one string serves
// both. Decoding must give back the same FLOAT bits.
func TestValueEncodingGolden(t *testing.T) {
	tup := value.Tuple{
		value.NewFloat(math.NaN()), value.NewFloat(math.Copysign(0, -1)), value.NewFloat(0),
		value.NewFloat(math.Inf(1)), value.NewFloat(math.Inf(-1)), value.NewFloat(math.MaxFloat64),
		value.NewFloat(math.SmallestNonzeroFloat64), value.NewFloat(1),
		value.NewInt(1), value.NewInt(-1 << 62), value.NewString("it's"), value.NewBool(true), value.Null,
	}
	const want = "0d" +
		"02010000000000f87f" + "020000000000000080" + "020000000000000000" +
		"02000000000000f07f" + "02000000000000f0ff" + "02ffffffffffffef7f" +
		"020100000000000000" + "02000000000000f03f" +
		"0102" + "01ffffffffffffffff7f" + "030469742773" + "0401" + "00"
	heap := storage.AppendTuple(nil, tup)
	var f frameBuf
	f.tuple(tup)
	for name, got := range map[string][]byte{"storage.AppendTuple": heap, "frameBuf.tuple": f.b} {
		if hex.EncodeToString(got) != want {
			t.Errorf("%s = %x, want %s", name, got, want)
		}
	}
	back, n, err := storage.DecodeTuple(heap)
	if err != nil || n != len(heap) || len(back) != len(tup) {
		t.Fatalf("DecodeTuple = %v, read %d of %d bytes, %v", back, n, len(heap), err)
	}
	for i, v := range tup {
		if v.Type() == value.TypeFloat && math.Float64bits(back[i].Float()) != math.Float64bits(v.Float()) {
			t.Errorf("position %d: decoded %v, want %v", i, back[i], v)
		}
	}
}
