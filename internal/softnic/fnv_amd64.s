#include "textflag.h"

DATA fnvprime<>+0(SB)/4, $16777619
GLOBL fnvprime<>(SB), RODATA|NOPTR, $4
DATA lowbyte<>+0(SB)/4, $0xff
GLOBL lowbyte<>(SB), RODATA|NOPTR, $4
DATA four<>+0(SB)/4, $4
GLOBL four<>(SB), RODATA|NOPTR, $4

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	XORL   CX, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET

// GATHER loads, for each of the eight lanes of the offsets i, the four
// bytes at SI+i into x. The mask Y14 is spent by the gather and reset first.
#define GATHER(i, x) VPCMPEQD Y14, Y14, Y14; VPGATHERDD Y14, (SI)(i*1), x

// LOWBYTE, MIDBYTE and TOPBYTE fold one byte of each lane's word x (the low
// one, the one shift bits up, the top one) into its FNV-1a chain h: h ^= b,
// h *= prime. Y12 holds the prime, Y13 the byte mask, Y15 the byte.
#define LOWBYTE(x, h) VPAND Y13, x, Y15; VPXOR Y15, h, h; VPMULLD Y12, h, h
#define MIDBYTE(shift, x, h) VPSRLD $shift, x, Y15; VPAND Y13, Y15, Y15; VPXOR Y15, h, h; VPMULLD Y12, h, h
#define TOPBYTE(x, h) VPSRLD $24, x, Y15; VPXOR Y15, h, h; VPMULLD Y12, h, h

// func fnvGather(base *byte, off *[BurstMax]int32, h *[BurstMax]uint32, n int)
//
// Four groups of eight lanes: Y0-Y3 hold the states, Y4-Y7 the lanes' byte
// offsets from base, Y8-Y11 the four bytes each lane gathered this step.
// Every byte is one XOR and one multiply on a group's chain; the groups'
// chains are independent, so all four are in flight.
TEXT ·fnvGather(SB), NOSPLIT, $0-32
	MOVQ base+0(FP), SI
	MOVQ off+8(FP), DI
	MOVQ h+16(FP), DX
	MOVQ n+24(FP), CX
	SHRQ $2, CX
	JZ   done

	VMOVDQU      0(DX), Y0
	VMOVDQU      32(DX), Y1
	VMOVDQU      64(DX), Y2
	VMOVDQU      96(DX), Y3
	VMOVDQU      0(DI), Y4
	VMOVDQU      32(DI), Y5
	VMOVDQU      64(DI), Y6
	VMOVDQU      96(DI), Y7
	VPBROADCASTD fnvprime<>(SB), Y12
	VPBROADCASTD lowbyte<>(SB), Y13

loop:
	GATHER(Y4, Y8)
	GATHER(Y5, Y9)
	GATHER(Y6, Y10)
	GATHER(Y7, Y11)
	LOWBYTE(Y8, Y0)
	LOWBYTE(Y9, Y1)
	LOWBYTE(Y10, Y2)
	LOWBYTE(Y11, Y3)
	MIDBYTE(8, Y8, Y0)
	MIDBYTE(8, Y9, Y1)
	MIDBYTE(8, Y10, Y2)
	MIDBYTE(8, Y11, Y3)
	MIDBYTE(16, Y8, Y0)
	MIDBYTE(16, Y9, Y1)
	MIDBYTE(16, Y10, Y2)
	MIDBYTE(16, Y11, Y3)
	TOPBYTE(Y8, Y0)
	TOPBYTE(Y9, Y1)
	TOPBYTE(Y10, Y2)
	TOPBYTE(Y11, Y3)

	VPBROADCASTD four<>(SB), Y15
	VPADDD       Y15, Y4, Y4
	VPADDD       Y15, Y5, Y5
	VPADDD       Y15, Y6, Y6
	VPADDD       Y15, Y7, Y7
	DECQ         CX
	JNZ          loop

	VMOVDQU Y0, 0(DX)
	VMOVDQU Y1, 32(DX)
	VMOVDQU Y2, 64(DX)
	VMOVDQU Y3, 96(DX)
	VZEROUPPER

done:
	RET
