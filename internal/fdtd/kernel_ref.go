package fdtd

// Reference kernels: the per-cell At/Set form of updateERange and
// updateHRange, retained as the executable specification of the Yee
// update.  Each is line-for-line the windowed loop structure of the
// fast kernels with every row view replaced by a scalar At/Set access,
// and each per-cell expression is operation-for-operation identical —
// same operands, same order, same rounding — so the fast kernels must
// reproduce their results bitwise on any window.  Every coefficient
// comes straight from Spec.Coefficients at the cell's global index, not
// from the block's interned coefficient table, so the property tests
// hold the table to the spec as well as the row kernels to the per-cell
// form.  Each product sits in
// an explicit float64 conversion, as in yeeRowGeneric, so no build may
// fuse it into an FMA and the bits are the same on every architecture.
// The property tests (TestKernelPencilVsReferenceProperty) pit the two
// against each other on randomized specs; nothing on the hot path calls
// these.

// updateERangeRef is the per-cell reference for updateERange.
func updateERangeRef(f *Fields, li0, li1, lj0, lj1 int) int {
	nz := f.Ex.NZ()
	count := 0
	liStart := 0
	if f.XR.Lo == 0 {
		liStart = 1
	}
	ljStart := 0
	if f.YR.Lo == 0 {
		ljStart = 1
	}
	// Ex: all i; global j >= 1; k >= 1.
	for li := li0; li < li1; li++ {
		for lj := imax(lj0, ljStart); lj < lj1; lj++ {
			for k := 1; k < nz; k++ {
				ca, cb, _, _ := f.Spec.Coefficients(f.XR.Lo+li, f.YR.Lo+lj, k)
				f.Ex.Set(li, lj, k, float64(ca*f.Ex.At(li, lj, k))+
					float64(cb*((f.Hz.At(li, lj, k)-f.Hz.At(li, lj-1, k))-(f.Hy.At(li, lj, k)-f.Hy.At(li, lj, k-1)))))
			}
			count += nz - 1
		}
	}
	// Ey: global i >= 1; all j; k >= 1.
	for li := imax(li0, liStart); li < li1; li++ {
		for lj := lj0; lj < lj1; lj++ {
			for k := 1; k < nz; k++ {
				ca, cb, _, _ := f.Spec.Coefficients(f.XR.Lo+li, f.YR.Lo+lj, k)
				f.Ey.Set(li, lj, k, float64(ca*f.Ey.At(li, lj, k))+
					float64(cb*((f.Hx.At(li, lj, k)-f.Hx.At(li, lj, k-1))-(f.Hz.At(li, lj, k)-f.Hz.At(li-1, lj, k)))))
			}
			count += nz - 1
		}
	}
	// Ez: global i >= 1; global j >= 1; all k.
	for li := imax(li0, liStart); li < li1; li++ {
		for lj := imax(lj0, ljStart); lj < lj1; lj++ {
			for k := 0; k < nz; k++ {
				ca, cb, _, _ := f.Spec.Coefficients(f.XR.Lo+li, f.YR.Lo+lj, k)
				f.Ez.Set(li, lj, k, float64(ca*f.Ez.At(li, lj, k))+
					float64(cb*((f.Hy.At(li, lj, k)-f.Hy.At(li-1, lj, k))-(f.Hx.At(li, lj, k)-f.Hx.At(li, lj-1, k)))))
			}
			count += nz
		}
	}
	return count
}

// updateHRangeRef is the per-cell reference for updateHRange.
func updateHRangeRef(f *Fields, li0, li1, lj0, lj1 int) int {
	nxl, nyl := f.XR.Len(), f.YR.Len()
	nz := f.Hx.NZ()
	count := 0
	liEnd := nxl
	if f.XR.Hi == f.Spec.NX {
		liEnd = nxl - 1
	}
	ljEnd := nyl
	if f.YR.Hi == f.Spec.NY {
		ljEnd = nyl - 1
	}
	// Hx: all i; global j < ny-1; k < nz-1.
	for li := li0; li < li1; li++ {
		for lj := lj0; lj < imin(lj1, ljEnd); lj++ {
			for k := 0; k < nz-1; k++ {
				_, _, da, db := f.Spec.Coefficients(f.XR.Lo+li, f.YR.Lo+lj, k)
				f.Hx.Set(li, lj, k, float64(da*f.Hx.At(li, lj, k))+
					float64(db*((f.Ey.At(li, lj, k+1)-f.Ey.At(li, lj, k))-(f.Ez.At(li, lj+1, k)-f.Ez.At(li, lj, k)))))
			}
			count += nz - 1
		}
	}
	// Hy: global i < nx-1; all j; k < nz-1.
	for li := li0; li < imin(li1, liEnd); li++ {
		for lj := lj0; lj < lj1; lj++ {
			for k := 0; k < nz-1; k++ {
				_, _, da, db := f.Spec.Coefficients(f.XR.Lo+li, f.YR.Lo+lj, k)
				f.Hy.Set(li, lj, k, float64(da*f.Hy.At(li, lj, k))+
					float64(db*((f.Ez.At(li+1, lj, k)-f.Ez.At(li, lj, k))-(f.Ex.At(li, lj, k+1)-f.Ex.At(li, lj, k)))))
			}
			count += nz - 1
		}
	}
	// Hz: global i < nx-1; global j < ny-1; all k.
	for li := li0; li < imin(li1, liEnd); li++ {
		for lj := lj0; lj < imin(lj1, ljEnd); lj++ {
			for k := 0; k < nz; k++ {
				_, _, da, db := f.Spec.Coefficients(f.XR.Lo+li, f.YR.Lo+lj, k)
				f.Hz.Set(li, lj, k, float64(da*f.Hz.At(li, lj, k))+
					float64(db*((f.Ex.At(li, lj+1, k)-f.Ex.At(li, lj, k))-(f.Ey.At(li+1, lj, k)-f.Ey.At(li, lj, k)))))
			}
			count += nz
		}
	}
	return count
}
