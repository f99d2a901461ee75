package value

import (
	"math"
	"testing"
	"unsafe"
)

// TestValueSize pins the 32-byte layout: a FLOAT shares the int64 word, so
// a Value is a type tag, one word and a string header.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

// TestFloatEdgeSemantics pins how FLOAT edge values compare, hash, render
// and coerce. The expectations are the behaviour of the earlier layout that
// kept a FLOAT in a float64 field of its own, so storing the IEEE bits in the
// int64 word changes none of them: NaN is not Equal (nor Identical) to
// itself, -0 and +0 are Equal and hash alike, and FLOAT 1 hashes like INT 1.
// The one departure is deliberate: a FLOAT outside int64's range (±Inf,
// 2^63, MaxFloat64) no longer coerces to INT, nor hashes through int64.
func TestFloatEdgeSemantics(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name      string
		v, o      Value // Equal, Identical and Compare take v against o
		equal     bool
		identical bool
		compare   int
		key, str  string
		hash      uint64
		toInt     Value // Coerce(TypeInt); Null with an error when lossy
		toIntErr  bool
		float     float64 // Float(), compared bit for bit
	}{
		{"NaN", NewFloat(nan), NewFloat(nan), false, false, 0, "2:NaN", "NaN", 0x8d1818291ff72671, Null, true, nan},
		{"NaN vs INT", NewFloat(nan), NewInt(1), false, false, 0, "2:NaN", "NaN", 0x8d1818291ff72671, Null, true, nan},
		{"-0", NewFloat(negZero), NewFloat(0), true, true, 0, "2:-0", "-0", 0xa8c7f832281a39c5, NewInt(0), false, negZero},
		{"+0", NewFloat(0), NewFloat(negZero), true, true, 0, "2:0", "0", 0xa8c7f832281a39c5, NewInt(0), false, 0},
		{"+Inf", NewFloat(inf), NewFloat(inf), true, true, 0, "2:+Inf", "+Inf", 0xaab1293229b9b0f8, Null, true, inf},
		{"-Inf", NewFloat(-inf), NewFloat(inf), false, false, -1, "2:-Inf", "-Inf", 0xaab1a93229ba8a78, Null, true, -inf},
		{"MaxFloat64", NewFloat(math.MaxFloat64), NewFloat(inf), false, false, -1, "2:1.7976931348623157e+308", "1.7976931348623157e+308", 0x8cbf9a8bfc76d24d, Null, true, math.MaxFloat64},
		{"-2^63", NewFloat(-1 << 63), NewInt(math.MinInt64), true, true, 0, "2:-9.223372036854776e+18", "-9.223372036854776e+18", 0xa8c7783228196045, NewInt(math.MinInt64), false, -1 << 63},
		{"2^63", NewFloat(1 << 63), NewFloat(-1 << 63), false, false, 1, "2:9.223372036854776e+18", "9.223372036854776e+18", 0xaae7f53229e89b0c, Null, true, 1 << 63},
		{"smallest subnormal", NewFloat(math.SmallestNonzeroFloat64), NewFloat(0), false, false, 1, "2:5e-324", "5e-324", 0x89cd31291d2aefa4, Null, true, math.SmallestNonzeroFloat64},
		{"1.0 vs INT 1", NewFloat(1), NewInt(1), true, true, 0, "2:1", "1", 0x89cd31291d2aefa4, NewInt(1), false, 1},
		{"INT 1 vs 1.0", NewInt(1), NewFloat(1), true, true, 0, "1:1", "1", 0x89cd31291d2aefa4, NewInt(1), false, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := c.v
			if got := v.Equal(c.o); got != c.equal {
				t.Errorf("Equal = %v, want %v", got, c.equal)
			}
			if got := v.Identical(c.o); got != c.identical {
				t.Errorf("Identical = %v, want %v", got, c.identical)
			}
			if got := v.Compare(c.o); got != c.compare {
				t.Errorf("Compare = %d, want %d", got, c.compare)
			}
			if got := string(v.AppendKey(nil)); got != c.key {
				t.Errorf("AppendKey = %q, want %q", got, c.key)
			}
			if got := v.Hash(); got != c.hash {
				t.Errorf("Hash = %#x, want %#x", got, c.hash)
			}
			if got := v.String(); got != c.str {
				t.Errorf("String = %q, want %q", got, c.str)
			}
			got, err := v.Coerce(TypeInt)
			if (err != nil) != c.toIntErr || got.Type() != c.toInt.Type() || !got.Identical(c.toInt) {
				t.Errorf("Coerce(INT) = %v, %v; want %v (error %v)", got, err, c.toInt, c.toIntErr)
			}
			if back, err := v.Coerce(TypeFloat); err != nil || math.Float64bits(back.Float()) != math.Float64bits(v.Float()) {
				t.Errorf("Coerce(FLOAT) = %v, %v; want %v", back, err, v)
			}
			if got := v.Float(); math.Float64bits(got) != math.Float64bits(c.float) {
				t.Errorf("Float = %v (bits %#x), want %v (bits %#x)", got, math.Float64bits(got), c.float, math.Float64bits(c.float))
			}
		})
	}
}
