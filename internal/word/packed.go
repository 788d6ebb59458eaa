package word

import (
	"encoding/binary"
	"math/bits"
)

// Digit planes: the packed representation the routing kernels compare
// with XOR. A base-d word splits into b = PackedBits(d) bit planes;
// bit i of plane p is bit p of digit x_{i+1} (0-based position i).
// Each plane takes ⌈k/64⌉ uint64 elements, little-endian in both bit
// and element order with the bits past k clear, and the planes follow
// one another, plane 0 first. Two digits are equal iff they agree on
// every plane, so the digit agreement of two words is the complement
// of the OR of b plane XORs, one bit per digit, and a digit shift of c
// positions is a bit shift of c in every plane.

// PackedBits returns b = ⌈log₂ base⌉, the number of digit planes of a
// base-d word: 1 for d = 2, 2 for d ≤ 4, …, 6 for d ≤ 36.
func PackedBits(base int) int {
	return bits.Len(uint(base - 1))
}

// bitGather packs the low bit of each of the 8 bytes of v into the low
// 8 bits of the result, byte i to bit i. Multiplying the masked bytes
// by the magic constant lands byte i's bit at position 56+i (every
// other (i,j) byte pair of the product falls below 56 or past bit 63,
// where modular multiplication discards it, and no two of them share a
// position, so nothing carries), so one shift extracts all eight.
func bitGather(v uint64) uint64 {
	return ((v & 0x0101010101010101) * 0x0102040810204080) >> 56
}

// AppendPlanes appends the PackedBits(d) digit planes of w to dst and
// returns the extended slice: ⌈k/64⌉ elements per plane, planes back
// to back. Allocation-free once dst has capacity.
func (w Word) AppendPlanes(dst []uint64) []uint64 {
	b := uint(PackedBits(w.base))
	for p := uint(0); p < b; p++ {
		d := w.digits
		for len(d) >= 64 {
			// Top byte group first, so that the shift by 8 is constant
			// and p alone needs the variable-shift register.
			c := (*[64]byte)(d)
			var cur uint64
			for o := 56; o >= 0; o -= 8 {
				cur = cur<<8 | bitGather(binary.LittleEndian.Uint64(c[o:])>>p)
			}
			dst = append(dst, cur)
			d = d[64:]
		}
		if len(d) > 0 {
			var cur uint64
			i := 0
			for ; i+8 <= len(d); i += 8 {
				cur |= bitGather(binary.LittleEndian.Uint64(d[i:])>>p) << uint(i)
			}
			for ; i < len(d); i++ {
				cur |= uint64(d[i]>>p&1) << uint(i)
			}
			dst = append(dst, cur)
		}
	}
	return dst
}
