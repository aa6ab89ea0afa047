package db

// This file holds the canonical byte-string encodings shared by the
// deduplication and visited-set maps across the repository: TupleKey
// covers fixed-width Const tuples, AppendInt and IntsKey variable-width
// int sequences (ground ASP atoms and rules, partition representative
// vectors).

import "strings"

// TupleKey returns a compact byte-string key uniquely identifying a
// tuple of constants (four little-endian bytes per component). It is
// the canonical tuple encoding for string-keyed deduplication maps
// (query answers, expanded answer sets); tables deduplicate through
// their own hash set instead.
func TupleKey(args []Const) string {
	var b strings.Builder
	b.Grow(len(args) * 4)
	for _, c := range args {
		v := uint32(c)
		b.WriteByte(byte(v))
		b.WriteByte(byte(v >> 8))
		b.WriteByte(byte(v >> 16))
		b.WriteByte(byte(v >> 24))
	}
	return b.String()
}

// AppendInt appends the canonical encoding of one int to dst: the
// zigzag mapping (so small negative values such as the -1 head of a
// ground ASP constraint stay one byte) followed by base-128 varint
// bytes, least significant group first.
func AppendInt(dst []byte, x int) []byte {
	u := uint64(x) << 1
	if x < 0 {
		u = ^u
	}
	for u >= 0x80 {
		dst = append(dst, byte(u)|0x80)
		u >>= 7
	}
	return append(dst, byte(u))
}

// IntsKey returns the canonical key of an int sequence: the
// concatenation of AppendInt encodings. Two sequences share a key iff
// they are element-wise equal and of equal length (the varint encoding
// is self-delimiting, so no separator is needed).
func IntsKey(xs []int) string {
	buf := make([]byte, 0, len(xs)*2+8)
	for _, x := range xs {
		buf = AppendInt(buf, x)
	}
	return string(buf)
}
