#include "textflag.h"

// 0x8000 in every 16-bit word: XORed in, it turns an unsigned word w into
// the signed word w - 32768.
DATA bias<>+0(SB)/8, $0x8000800080008000
DATA bias<>+8(SB)/8, $0x8000800080008000
GLOBL bias<>(SB), RODATA|NOPTR, $16

// 1 in every 16-bit word: PMADDWD by it adds each lane's two words.
DATA ones<>+0(SB)/8, $0x0001000100010001
DATA ones<>+8(SB)/8, $0x0001000100010001
GLOBL ones<>(SB), RODATA|NOPTR, $16

// ADDWORDS adds the eight little-endian words at off(SI), each biased by
// -32768, pairwise into the 32-bit lanes of acc. t is scratch.
#define ADDWORDS(off, t, acc) MOVOU off(SI), t; PXOR X8, t; PMADDWL X9, t; PADDL t, acc

// func sumLE(p *byte, n int) uint64
//
// 64 bytes per iteration into four accumulators. PMADDWD multiplies signed
// words, so each word is biased into the signed range first and the n/2
// biases of 32768 are added back at the end.
TEXT ·sumLE(SB), NOSPLIT, $0-24
	MOVQ  p+0(FP), SI
	MOVQ  n+8(FP), CX
	MOVQ  CX, DX
	MOVOU bias<>(SB), X8
	MOVOU ones<>(SB), X9
	PXOR  X0, X0
	PXOR  X1, X1
	PXOR  X2, X2
	PXOR  X3, X3

loop:
	ADDWORDS(0, X4, X0)
	ADDWORDS(16, X5, X1)
	ADDWORDS(32, X6, X2)
	ADDWORDS(48, X7, X3)
	ADDQ $64, SI
	SUBQ $64, CX
	JNZ  loop

	// Four signed lanes of magnitude at most 2^28 each: sign-extend to 64
	// bits, add, and take the biases back out.
	PADDL     X1, X0
	PADDL     X3, X2
	PADDL     X2, X0
	MOVO      X0, X1
	PSRAL     $31, X1
	MOVO      X0, X2
	PUNPCKLLQ X1, X0
	PUNPCKHLQ X1, X2
	PADDQ     X2, X0
	MOVQ      X0, AX
	PSRLO     $8, X0
	MOVQ      X0, BX
	ADDQ      BX, AX
	SHLQ      $14, DX
	ADDQ      DX, AX
	MOVQ      AX, ret+16(FP)
	RET
