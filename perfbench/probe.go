package main

import (
	"math"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts by up to half from one second to the next on
// a shared VM, with the same CPU profile, and that drift moved the
// paced medians over ten runs by more than any bound a benchmark may
// set. So after each paced frame's render, and after each set-up, the
// benchmark times a fixed reference kernel that uses no windtunnel
// code, and scales that frame's or set-up's time by probeRef over the
// kernel's time: the figures read as times on a host where the kernel
// takes probeRef. A change to the program moves the frame, not the
// kernel, so it shows in full.

// probeRef is the reference kernel's time the end-to-end frame times
// are scaled to (about its median on a 2-vCPU Xeon VM).
const probeRef = 500 * time.Microsecond

// The kernel mirrors the frame's two heaviest costs: trilinear samples
// of a dataset-sized vector grid (integrate) and a pass over a
// 640×512 framebuffer (render).
const (
	probeNI, probeNJ, probeNK = 24, 32, 10
	probeSamples              = 4096
)

var (
	probeGrid = func() []float32 {
		g := offHeap[float32](probeNI * probeNJ * probeNK * 3)
		for i := range g {
			g[i] = float32(math.Sin(float64(i) * 0.37))
		}
		return g
	}()
	probePoints = func() [][3]float32 {
		pts := offHeap[[3]float32](probeSamples)
		s := uint32(12345)
		next := func(n int) float32 {
			s = s*1664525 + 1013904223
			return float32(s>>8) / (1 << 24) * float32(n-1)
		}
		for i := range pts {
			pts[i] = [3]float32{next(probeNI), next(probeNJ), next(probeNK)}
		}
		return pts
	}()
	// One framebuffer and sink per workstation goroutine.
	probeFB   = [2][]uint32{offHeap[uint32](640 * 512), offHeap[uint32](640 * 512)}
	probeSink [2]float32
)

// offHeap returns n zeroed values of T in memory the Go heap does not
// own, so the kernel's buffers stay out of peak_heap_mb.
func offHeap[T any](n int) []T {
	var zero T
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

// probe runs the reference kernel once on workstation ws's goroutine
// and returns its time.
func probe(ws int) time.Duration {
	t0 := time.Now()
	var acc float32
	for _, p := range probePoints {
		i, j, k := int(p[0]), int(p[1]), int(p[2])
		fx, fy, fz := p[0]-float32(i), p[1]-float32(j), p[2]-float32(k)
		for c := 0; c < 3; c++ {
			at := func(di, dj, dk int) float32 {
				return probeGrid[(((k+dk)*probeNJ+j+dj)*probeNI+i+di)*3+c]
			}
			x00 := at(0, 0, 0) + fx*(at(1, 0, 0)-at(0, 0, 0))
			x10 := at(0, 1, 0) + fx*(at(1, 1, 0)-at(0, 1, 0))
			x01 := at(0, 0, 1) + fx*(at(1, 0, 1)-at(0, 0, 1))
			x11 := at(0, 1, 1) + fx*(at(1, 1, 1)-at(0, 1, 1))
			y0 := x00 + fy*(x10-x00)
			y1 := x01 + fy*(x11-x01)
			acc += y0 + fz*(y1-y0)
		}
	}
	fb := probeFB[ws]
	for i := range fb {
		fb[i] = fb[i]*1664525 + uint32(i)
	}
	probeSink[ws] += acc + float32(fb[len(fb)/3]&1)
	return time.Since(t0)
}

// atRef scales a paced frame's time x to the reference host speed.
func (r *frameRec) atRef(x float64) float64 {
	return x * float64(probeRef) / float64(r.probe)
}
