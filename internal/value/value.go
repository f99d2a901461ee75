// Package value defines the typed value, tuple and schema layer shared by
// every component of the Youtopia reproduction: the storage engine, the SQL
// execution engine, the entangled-query compiler and the coordination
// component all exchange data as value.Tuple.
//
// The type system is deliberately small — integers, floats, strings, booleans
// and NULL — matching what the paper's travel schema (Figure 1a) needs while
// keeping comparison and hashing semantics unambiguous.
package value

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
)

// Type enumerates the value types supported by the engine.
type Type uint8

// Supported types. TypeNull is the type of the NULL literal before it is
// coerced into a column's declared type.
const (
	TypeNull Type = iota
	TypeInt
	TypeFloat
	TypeString
	TypeBool
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	case TypeString:
		return "STRING"
	case TypeBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// ParseType converts a SQL type name to a Type. It accepts the common
// aliases used in CREATE TABLE statements.
func ParseType(name string) (Type, error) {
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return TypeInt, nil
	case "FLOAT", "DOUBLE", "REAL", "DECIMAL", "NUMERIC":
		return TypeFloat, nil
	case "STRING", "TEXT", "VARCHAR", "CHAR":
		return TypeString, nil
	case "BOOL", "BOOLEAN":
		return TypeBool, nil
	default:
		return TypeNull, fmt.Errorf("unknown type %q", name)
	}
}

// Value is a single typed datum. The zero Value is NULL.
//
// Value is a small immutable struct passed by value everywhere; it never
// aliases mutable state, so tuples can be shared freely across goroutines
// once published. It is 32 bytes: a FLOAT keeps its IEEE-754 bits in i,
// read back through fl.
type Value struct {
	typ Type
	i   int64  // TypeInt, TypeBool (0/1), and TypeFloat's bits
	s   string // TypeString
}

// Null is the NULL value.
var Null = Value{}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{typ: TypeInt, i: v} }

// NewFloat returns a float value.
func NewFloat(v float64) Value { return Value{typ: TypeFloat, i: int64(math.Float64bits(v))} }

// NewString returns a string value.
func NewString(v string) Value { return Value{typ: TypeString, s: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{typ: TypeBool, i: i}
}

// fl is a FLOAT's payload.
func (v Value) fl() float64 { return math.Float64frombits(uint64(v.i)) }

// Type reports the value's type.
func (v Value) Type() Type { return v.typ }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.typ == TypeNull }

// Int returns the integer payload. It panics if the value is not an INT.
func (v Value) Int() int64 {
	if v.typ != TypeInt {
		panic(fmt.Sprintf("value: Int() on %s", v.typ))
	}
	return v.i
}

// Float returns the float payload, coercing INT to FLOAT. It panics on other
// types.
func (v Value) Float() float64 {
	switch v.typ {
	case TypeFloat:
		return v.fl()
	case TypeInt:
		return float64(v.i)
	default:
		panic(fmt.Sprintf("value: Float() on %s", v.typ))
	}
}

// Str returns the string payload. It panics if the value is not a STRING.
func (v Value) Str() string {
	if v.typ != TypeString {
		panic(fmt.Sprintf("value: Str() on %s", v.typ))
	}
	return v.s
}

// Bool returns the boolean payload. It panics if the value is not a BOOL.
func (v Value) Bool() bool {
	if v.typ != TypeBool {
		panic(fmt.Sprintf("value: Bool() on %s", v.typ))
	}
	return v.i != 0
}

// String renders the value in SQL literal syntax.
func (v Value) String() string {
	switch v.typ {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return strconv.FormatInt(v.i, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.fl(), 'g', -1, 64)
	case TypeString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case TypeBool:
		if v.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "?"
	}
}

// AppendKey appends a canonical, injective key encoding of the value to b:
// a type tag, then the payload — strings are length-prefixed so payload
// bytes can never be confused with tuple separators. The encoding is
// consistent with Identical for values of the same type; it deliberately
// avoids fmt and SQL quoting so hot-path key construction writes straight
// into a caller-owned (usually stack) buffer.
func (v Value) AppendKey(b []byte) []byte {
	b = append(b, '0'+byte(v.typ), ':')
	switch v.typ {
	case TypeInt, TypeBool:
		b = strconv.AppendInt(b, v.i, 10)
	case TypeFloat:
		b = strconv.AppendFloat(b, v.fl(), 'g', -1, 64)
	case TypeString:
		b = strconv.AppendInt(b, int64(len(v.s)), 10)
		b = append(b, ':')
		b = append(b, v.s...)
	}
	return b
}

// numeric reports whether the value is INT or FLOAT.
func (v Value) numeric() bool { return v.typ == TypeInt || v.typ == TypeFloat }

// Equal reports SQL equality with NULL never equal to anything (including
// NULL). INT and FLOAT compare numerically across types.
func (v Value) Equal(o Value) bool {
	if v.typ == TypeNull || o.typ == TypeNull {
		return false
	}
	if v.numeric() && o.numeric() {
		if v.typ == TypeInt && o.typ == TypeInt {
			return v.i == o.i
		}
		return v.Float() == o.Float()
	}
	if v.typ != o.typ {
		return false
	}
	switch v.typ {
	case TypeString:
		return v.s == o.s
	case TypeBool:
		return v.i == o.i
	default:
		return false
	}
}

// Identical reports structural identity: NULL is identical to NULL, and no
// numeric cross-type coercion happens. This is the equality used by hash
// indexes and by the unifier, where NULL-vs-NULL must be reflexive.
func (v Value) Identical(o Value) bool {
	if v.typ != o.typ {
		// Allow INT/FLOAT identity only when numerically exact, so that an
		// index keyed by 2.0 finds the literal 2.
		if v.numeric() && o.numeric() {
			return v.Float() == o.Float()
		}
		return false
	}
	switch v.typ {
	case TypeNull:
		return true
	case TypeInt, TypeBool:
		return v.i == o.i
	case TypeFloat:
		return v.fl() == o.fl()
	case TypeString:
		return v.s == o.s
	default:
		return false
	}
}

// Compare orders two values: -1, 0 or +1. NULL sorts before everything.
// Values of incomparable types order by type tag (stable but arbitrary),
// which is sufficient for deterministic iteration.
func (v Value) Compare(o Value) int {
	if v.typ == TypeNull || o.typ == TypeNull {
		switch {
		case v.typ == o.typ:
			return 0
		case v.typ == TypeNull:
			return -1
		default:
			return 1
		}
	}
	if v.numeric() && o.numeric() {
		a, b := v.Float(), o.Float()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if v.typ != o.typ {
		if v.typ < o.typ {
			return -1
		}
		return 1
	}
	switch v.typ {
	case TypeString:
		return strings.Compare(v.s, o.s)
	case TypeBool:
		switch {
		case v.i < o.i:
			return -1
		case v.i > o.i:
			return 1
		default:
			return 0
		}
	default:
		return 0
	}
}

// Hash returns a 64-bit hash consistent with Identical: identical values hash
// equal, and numerically-equal INT/FLOAT values hash equal.
func (v Value) Hash() uint64 {
	h := fnv.New64a()
	switch v.typ {
	case TypeNull:
		h.Write([]byte{0})
	case TypeInt:
		writeUint64(h, uint64(v.i))
		// INT hashes like the equal FLOAT so cross-type lookups work.
	case TypeFloat:
		if f := v.fl(); f == math.Trunc(f) && f >= -1<<63 && f < 1<<63 {
			writeUint64(h, uint64(int64(f)))
		} else {
			writeUint64(h, math.Float64bits(f))
		}
	case TypeString:
		h.Write([]byte{2})
		h.Write([]byte(v.s))
	case TypeBool:
		h.Write([]byte{3, byte(v.i)})
	}
	return h.Sum64()
}

func writeUint64(h interface{ Write([]byte) (int, error) }, u uint64) {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
	h.Write(b[:])
}

// Coerce converts v to type t when a lossless conversion exists (INT→FLOAT,
// exact FLOAT→INT, NULL→anything). It returns an error otherwise.
func (v Value) Coerce(t Type) (Value, error) {
	if v.typ == t || v.typ == TypeNull {
		return v, nil
	}
	switch {
	case v.typ == TypeInt && t == TypeFloat:
		return NewFloat(float64(v.i)), nil
	case v.typ == TypeFloat && t == TypeInt:
		// The range test also refuses ±Inf, which pass the Trunc test but
		// have no int64 value (the conversion would be platform-defined).
		if f := v.fl(); f == math.Trunc(f) && f >= -1<<63 && f < 1<<63 {
			return NewInt(int64(f)), nil
		}
	}
	return Null, fmt.Errorf("cannot coerce %s %s to %s", v.typ, v, t)
}
