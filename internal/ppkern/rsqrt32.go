package ppkern

import "math"

// Single-precision fast reciprocal square root for the float32 kernel
// family — the software stand-in for HPC-ACE's frsqrta (an approximate
// inverse square root with 8-bit accuracy, §II-A). The seed uses the classic
// bit-trick approximation followed by one Newton step — no table, nothing
// the compiler cannot keep in registers inside the force loop. The seed
// reaches ≈9-bit accuracy, and a single third-order (Householder) step
//
//	h = 1 − x·y²,  y ← y·(1 + h/2 + 3h²/8)
//
// cubes the relative error to ~5·10⁻⁹, below the float32 rounding floor —
// the same "stop once the science stops improving" refinement budget the
// paper applies on HPC-ACE (§II-A).

// Rsqrt32Seed returns an approximation to 1/√x accurate to about 9 bits:
// the magic-constant bit shift (Blinn/Lomont) plus one Newton step. x must
// be positive, finite and normal.
func Rsqrt32Seed(x float32) float32 {
	y := math.Float32frombits(0x5f375a86 - math.Float32bits(x)>>1)
	return y * (1.5 - 0.5*x*y*y)
}

// Rsqrt32 returns 1/√x to full float32 accuracy (relative error below one
// ulp-scale bound of ~2⁻²³) using the seeded approximation plus one
// third-order refinement.
func Rsqrt32(x float32) float32 {
	y := Rsqrt32Seed(x)
	h := 1 - x*y*y
	return y * (1 + h*(0.5+h*0.375))
}
