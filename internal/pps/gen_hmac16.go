//go:build ignore

// gen_hmac16 writes hmac16_amd64.s, the 16-lane HMAC-SHA-256 kernels,
// in three shapes:
//
//   - hmac16, the encoder's blinding (bloom.go): one key, 16 trapdoor
//     elements, digest words 0 and 1;
//   - hmac16el, the matcher's (lanes.go): 16 keys by index, one
//     trapdoor element, digest words 0 and 1;
//   - hmac16el8, the encoder's word trapdoors (bloom.go): hmac16el with
//     the word's one padded block for the element and the whole 8-word
//     digest out, lane i keyed by the scheme's sub-key i and writing
//     row i.
//
// Run it in this directory:
//
//	go generate    # or: go run gen_hmac16.go
//
// CI regenerates the file and fails if it differs from the one checked
// in, so edit this program, never the output.
//
// Each evaluates HMAC(key, x) in each of 16 lanes, one lane per 32-bit
// slot of a zmm register; matching and blinding read the leading 8
// bytes of the HMAC. The outer block (the inner digest padded after the
// opad block) has constant words 8-15, which the generator folds into
// the round constants and the message schedule. hmac16 takes one key
// schedule, broadcast to every lane, and a 32-byte message per lane:
// lane i's is msg[i], gathered, and words 8-15 of its inner block are
// constants too. hmac16el and hmac16el8 take one message for every
// lane, any x whose padding fits one block, as its inner block's
// W[t]+K[t], so the inner hash has no message schedule; lane i's
// schedule is row idx[i] of an array, loaded whole and transposed in
// registers. The two are one generator function, so hmac16el's
// instructions do not depend on hmac16el8's. The file also carries
// prefetch16.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/bits"
	"os"
)

// k256 is SHA-256's round constants (FIPS 180-4 §4.2.2).
var k256 = [64]uint32{
	0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
	0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
	0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
	0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
	0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
	0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
	0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
	0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
}

// pad is words 8-15 of both blocks the kernel compresses: 32 bytes of
// message after a 64-byte pad block, then 0x80, zeros and the bit
// length 8·(64+32).
var pad = [8]uint32{0x80000000, 0, 0, 0, 0, 0, 0, 8 * (64 + 32)}

func z(i int) string { return fmt.Sprintf("Z%d", i) }

type gen struct {
	out    bytes.Buffer
	consts []uint32       // the constant table, in order of first use
	index  map[uint32]int // constant -> position in consts
	t      [3]string      // the temporaries of xor3 and a round
}

func (g *gen) op(format string, args ...any) {
	fmt.Fprintf(&g.out, "\t"+format+"\n", args...)
}

func (g *gen) comment(s string) { fmt.Fprintf(&g.out, "\n\t// %s\n", s) }

// constant returns the address of c in the constant table, for an
// embedded broadcast.
func (g *gen) constant(c uint32) string {
	i, ok := g.index[c]
	if !ok {
		i = len(g.consts)
		g.index[c] = i
		g.consts = append(g.consts, c)
	}
	return fmt.Sprintf("consts<>+%d(SB)", 4*i)
}

func rotr(x uint32, n int) uint32 { return bits.RotateLeft32(x, -n) }

// sigma0 and sigma1 are the message schedule's σ0 and σ1, for folding
// constant words.
func sigma0(x uint32) uint32 { return rotr(x, 7) ^ rotr(x, 18) ^ x>>3 }
func sigma1(x uint32) uint32 { return rotr(x, 17) ^ rotr(x, 19) ^ x>>10 }

// xor3 leaves in t0 the XOR of x rotated right by r1 and r2 and x
// rotated right (shift false) or shifted right (shift true) by r3.
func (g *gen) xor3(x string, r1, r2, r3 int, shift bool) {
	t0, t1, t2 := g.t[0], g.t[1], g.t[2]
	g.op("VPRORD $%d, %s, %s", r1, x, t0)
	g.op("VPRORD $%d, %s, %s", r2, x, t1)
	if shift {
		g.op("VPSRLD $%d, %s, %s", r3, x, t2)
	} else {
		g.op("VPRORD $%d, %s, %s", r3, x, t2)
	}
	g.op("VPTERNLOGD $0x96, %s, %s, %s", t2, t1, t0)
}

// schedule is the 16-word message window of one compression: slot i
// holds W[t] for t ≡ i (mod 16) in register reg[i], or, while known[i],
// the constant val[i] and nothing in the register.
type schedule struct {
	reg   [16]string
	known [16]bool
	val   [16]uint32
}

// next computes W[t] (t ≥ 16) into slot t%16:
// W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16].
func (g *gen) next(w *schedule, t int) {
	d := t % 16
	dst := w.reg[d]
	var c uint32
	held := !w.known[d] // dst holds a partial sum
	if !held {
		c = w.val[d]
	}
	add := func(r string) {
		if held {
			g.op("VPADDD %s, %s, %s", r, dst, dst)
		} else {
			g.op("VMOVDQA32 %s, %s", r, dst)
			held = true
		}
	}
	if s := (t - 15) % 16; w.known[s] {
		c += sigma0(w.val[s])
	} else {
		g.xor3(w.reg[s], 7, 18, 3, true)
		add(g.t[0])
	}
	if s := (t - 7) % 16; w.known[s] {
		c += w.val[s]
	} else {
		add(w.reg[s])
	}
	if s := (t - 2) % 16; w.known[s] {
		c += sigma1(w.val[s])
	} else {
		g.xor3(w.reg[s], 17, 19, 10, true)
		add(g.t[0])
	}
	w.known[d], w.val[d] = !held, c
	if held && c != 0 {
		g.op("VPADDD.BCST %s, %s, %s", g.constant(c), dst, dst)
	}
}

// compress emits the 64 rounds of SHA-256 on the state registers s
// (a..h) and message w. A nil w is a message every lane shares, whose
// W[t]+K[t] the caller computed: round t adds word t of the table at BX
// by embedded broadcast. The registers rotate by name, not by moves, so
// after 64 rounds the state is back in s.
func (g *gen) compress(s [8]string, w *schedule) {
	t0 := g.t[0]
	for t := 0; t < 64; t++ {
		a, b, c, d, e, f, gg, h := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
		if w == nil {
			g.op("VPADDD.BCST %d(BX), %s, %s", 4*t, h, h)
		} else {
			if t >= 16 {
				g.next(w, t)
			}
			k := k256[t]
			if slot := t % 16; w.known[slot] {
				k += w.val[slot]
			} else {
				g.op("VPADDD %s, %s, %s", w.reg[slot], h, h)
			}
			g.op("VPADDD.BCST %s, %s, %s", g.constant(k), h, h)
		}
		g.xor3(e, 6, 11, 25, false) // Σ1(e)
		g.op("VPADDD %s, %s, %s", t0, h, h)
		g.op("VMOVDQA32 %s, %s", e, t0)
		g.op("VPTERNLOGD $0xca, %s, %s, %s", gg, f, t0) // Ch(e, f, g)
		g.op("VPADDD %s, %s, %s", t0, h, h)             // h = T1
		g.op("VPADDD %s, %s, %s", h, d, d)              // the next e
		g.xor3(a, 2, 13, 22, false)                     // Σ0(a)
		g.op("VPADDD %s, %s, %s", t0, h, h)
		g.op("VMOVDQA32 %s, %s", a, t0)
		g.op("VPTERNLOGD $0xe8, %s, %s, %s", c, b, t0) // Maj(a, b, c)
		g.op("VPADDD %s, %s, %s", t0, h, h)            // the next a
		s = [8]string{h, a, b, c, d, e, f, gg}
	}
}

// outer emits the outer hash on state s: its message, the inner
// digest in Z0-Z7, is scheduled in Z0-Z15.
func (g *gen) outer(s [8]string) {
	var w schedule
	for i := range w.reg {
		w.reg[i] = z(i)
		w.known[i], w.val[i] = i >= 8, pad[i%8]
	}
	g.compress(s, &w)
}

// hmac16 emits the encoder's kernel. Registers: Z0-Z7 the inner state,
// then the outer message; Z8-Z23 the inner message schedule (Z8-Z15
// also the outer's); Z16-Z23 the outer state; Z24-Z26 temporaries; Z31
// the gather offsets.
func (g *gen) hmac16() {
	g.t = [3]string{"Z24", "Z25", "Z26"}
	g.op("MOVQ ks+0(FP), AX")
	g.op("MOVQ msg+8(FP), BX")
	g.op("MOVQ out+16(FP), SI")
	g.op("VMOVDQU32 offsets<>(SB), Z31")

	var inner, outer [8]string
	for i := range inner {
		inner[i], outer[i] = z(i), z(16+i)
	}
	g.comment("Inner hash: the chaining value after ipad, then the padded element.")
	for i, r := range inner {
		g.op("VPBROADCASTD %d(AX), %s", 4*i, r)
	}
	var w schedule
	for i := range w.reg {
		w.reg[i] = z(8 + i)
		w.known[i], w.val[i] = i >= 8, pad[i%8]
	}
	for i := 0; i < 8; i++ {
		g.op("KXNORW K1, K1, K1")
		g.op("VPGATHERDD %d(BX)(Z31*4), K1, %s", 4*i, w.reg[i])
	}
	g.compress(inner, &w)
	for i, r := range inner {
		g.op("VPADDD.BCST %d(AX), %s, %s", 4*i, r, r)
	}

	g.comment("Outer hash: the chaining value after opad, then the inner digest.")
	for i, r := range outer {
		g.op("VPBROADCASTD %d(AX), %s", 4*(8+i), r)
	}
	g.outer(outer)
	g.op("VPADDD.BCST 32(AX), Z16, Z16")
	g.op("VPADDD.BCST 36(AX), Z17, Z17")
	g.op("VMOVDQU32 Z16, (SI)")
	g.op("VMOVDQU32 Z17, 64(SI)")
	g.op("VZEROUPPER")
	g.op("RET")
}

// hmac16el emits the matcher's kernel, or with full hmac16el8, which
// writes all eight digest words, lane i's to row i of out (scattered
// through hmac16's gather offsets). Registers: Z16-Z31 the key schedule
// rows, then words; Z0-Z7 the inner state, then the outer message;
// Z8-Z10 the inner temporaries; Z0-Z15 the outer message schedule;
// Z24-Z31 the outer state; Z18-Z20 its temporaries. No register is left
// for the opad chaining value's words 2-7, which hmac16el8 keeps in out
// until it adds them.
func (g *gen) hmac16el(full bool) {
	g.op("MOVQ ks+0(FP), AX")
	g.op("MOVQ idx+8(FP), DX")
	g.op("MOVQ wk+16(FP), BX")
	g.op("MOVQ out+24(FP), SI")

	g.comment("Load lane i's key schedule into Z(16+i) and transpose: word w to Z(16+w).")
	for i := 0; i < 16; i++ {
		r := fmt.Sprintf("R%d", 8+i%4)
		g.op("MOVWQZX %d(DX), %s", 2*i, r)
		g.op("SHLQ $6, %s", r)
		g.op("VMOVDQU32 (AX)(%s*1), %s", r, z(16+i))
	}
	// Within each 128-bit lane (words 4k..4k+3) of rows a, b, c, d:
	// [a0 b0 a1 b1] and [a2 b2 a3 b3] to Z0-Z15, then [a0 b0 c0 d0] ...
	// [a3 b3 c3 d3] back to Z16-Z31: Z(16+4g+j) is word 4k+j of rows
	// 4g..4g+3 in lane k.
	for i := 0; i < 16; i += 2 {
		g.op("VPUNPCKLDQ %s, %s, %s", z(17+i), z(16+i), z(i))
		g.op("VPUNPCKHDQ %s, %s, %s", z(17+i), z(16+i), z(i+1))
	}
	for i := 0; i < 16; i++ {
		g.op("VPUNPCK%sQDQ %s, %s, %s", [2]string{"L", "H"}[i%2], z(i&^3+2+i%4/2), z(i&^3+i%4/2), z(16+i))
	}
	// Then across lanes: Z(8h+2j+p) holds lanes 2h and 2h+1 of Z(16+8p+j)
	// and Z(20+8p+j), and word 4(2h+q)+j of every row is lane q of each.
	for i := 0; i < 16; i++ {
		h, j, p := i/8, i%8/2, i%2
		g.op("VSHUFI32X4 $%#x, %s, %s, %s", [2]int{0x44, 0xee}[h], z(20+8*p+j), z(16+8*p+j), z(i))
	}
	for i := 0; i < 16; i++ {
		h, q, j := i/8, i%8/4, i%4
		g.op("VSHUFI32X4 $%#x, %s, %s, %s", [2]int{0x88, 0xdd}[q], z(8*h+2*j+1), z(8*h+2*j), z(16+i))
	}

	g.comment("Inner hash: the chaining value after ipad, then the element's W[t]+K[t].")
	var inner, outer [8]string
	for i := range inner {
		inner[i], outer[i] = z(i), z(24+i)
		g.op("VMOVDQA32 %s, %s", z(16+i), inner[i])
	}
	g.t = [3]string{"Z8", "Z9", "Z10"}
	g.compress(inner, nil)
	for i, r := range inner {
		g.op("VPADDD %s, %s, %s", z(16+i), r, r)
	}

	g.comment("Outer hash: the chaining value after opad (Z24-Z31, words 0 and 1 kept in Z16-Z17), then the inner digest.")
	if full {
		for i := 2; i < 8; i++ {
			g.op("VMOVDQU32 %s, %d(SI)", outer[i], 64*i)
		}
	}
	g.op("VMOVDQA32 Z24, Z16")
	g.op("VMOVDQA32 Z25, Z17")
	g.t = [3]string{"Z18", "Z19", "Z20"}
	g.outer(outer)
	g.op("VPADDD Z16, Z24, Z24")
	g.op("VPADDD Z17, Z25, Z25")
	if !full {
		g.op("VMOVDQU32 Z24, (SI)")
		g.op("VMOVDQU32 Z25, 64(SI)")
	} else {
		for i := 2; i < 8; i++ {
			g.op("VPADDD %d(SI), %s, %s", 64*i, outer[i], outer[i])
		}
		g.op("VMOVDQU32 offsets<>(SB), Z0")
		for i, r := range outer {
			g.op("KXNORW K1, K1, K1")
			g.op("VPSCATTERDD %s, K1, %d(SI)(Z0*4)", r, 4*i)
		}
	}
	g.op("VZEROUPPER")
	g.op("RET")
}

func main() {
	g := &gen{index: map[uint32]int{}}
	text := func(name, decl string, args int) {
		fmt.Fprintf(&g.out, "\n// func %s%s\nTEXT ·%s(SB), NOSPLIT, $0-%d\n", name, decl, name, args)
	}
	text("hmac16", "(ks *KeySchedule, msg *[16][8]uint32, out *[2][16]uint32)", 24)
	g.hmac16()
	text("hmac16el", "(ks *KeySchedule, idx *[16]uint16, wk *[64]uint32, out *[2][16]uint32)", 32)
	g.hmac16el(false)
	text("hmac16el8", "(ks *KeySchedule, idx *[16]uint16, wk *[64]uint32, out *[16][8]uint32)", 32)
	g.hmac16el(true)
	text("prefetch16", "(p *[16]*byte)", 8)
	g.op("MOVQ p+0(FP), AX")
	for i := 0; i < 16; i++ {
		g.op("MOVQ %d(AX), BX", 8*i)
		g.op("PREFETCHT0 (BX)")
	}
	g.op("RET")

	var f bytes.Buffer
	f.WriteString("// Code generated by gen_hmac16.go; DO NOT EDIT.\n\n//go:build amd64 && !purego\n\n#include \"textflag.h\"\n\n")
	for i, c := range g.consts {
		fmt.Fprintf(&f, "DATA consts<>+%d(SB)/4, $0x%08x\n", 4*i, c)
	}
	fmt.Fprintf(&f, "GLOBL consts<>(SB), RODATA|NOPTR, $%d\n", 4*len(g.consts))
	for i := 0; i < 16; i++ { // lane i's row of a [16][8]uint32: hmac16 gathers msg[i], hmac16el8 scatters out[i]
		fmt.Fprintf(&f, "DATA offsets<>+%d(SB)/4, $%d\n", 4*i, 8*i)
	}
	f.WriteString("GLOBL offsets<>(SB), RODATA|NOPTR, $64\n")
	f.Write(g.out.Bytes())
	if err := os.WriteFile("hmac16_amd64.s", f.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
}
