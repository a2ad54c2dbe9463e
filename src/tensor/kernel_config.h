// Runtime configuration for the dense kernel layer: worker count, the
// FLOP threshold below which GEMM stays serial, and the Mc/Kc/Nc
// cache-block sizes of the five-loop GEMM nest. All settings are
// process-global relaxed atomics — cheap to read on every dispatch.
//
// Environment: SAMPNN_THREADS is the only variable read here (worker
// count for partitioned GEMM; default: hardware concurrency). Everything
// else is derived (block sizes from cache geometry) or fixed (the parallel
// threshold). The Set* functions are in-process hooks for tests and
// benchmark sweeps; no environment variable reaches them. None of them
// changes results except SetGemmBlockSizes' kc (see GemmBlocking).

#pragma once

#include <cstddef>
#include <cstdint>

namespace sampnn {

struct CancelContext;  // src/util/deadline.h

/// Worker threads the partitioned GEMM path may use. Resolved on first call
/// from SAMPNN_THREADS, else std::thread::hardware_concurrency (min 1).
size_t GemmThreads();

/// Test hook: overrides the GEMM worker count. 0 re-resolves from
/// SAMPNN_THREADS / hardware on the next GemmThreads() call. A pool for the
/// new count is created lazily on the next parallel dispatch.
void SetGemmThreads(size_t n);

/// 2*m*n*k threshold at or above which a GEMM dispatch is partitioned
/// across the kernel pool. Small products stay serial: the pack + wake cost
/// exceeds the work well below this size. Default 4'000'000 (a 128^3
/// product).
uint64_t GemmParallelMinFlops();
/// Test hook: overrides the threshold (1 sends every product down the
/// parallel path); 0 restores the default.
void SetGemmParallelMinFlops(uint64_t flops);

/// Per-core data-cache capacities in bytes, detected once per process from
/// sysconf / sysfs. A level that cannot be detected reads 0; block-size
/// derivation substitutes conservative defaults (32 KiB / 1 MiB / 8 MiB).
struct CacheGeometry {
  size_t l1d_bytes = 0;
  size_t l2_bytes = 0;
  size_t l3_bytes = 0;
};
CacheGeometry DetectCacheGeometry();

/// Cache-block sizes for the five-loop BLIS-style GEMM nest
/// (src/tensor/gemm.cc). Invariants: mc is a multiple of the 6-row
/// microtile, nc a multiple of the 16-column microtile, kc a multiple of 8.
/// Defaults derive from DetectCacheGeometry(): kc sized so one A microtile
/// (6 x kc) plus one B microtile (kc x 16) stays L1-resident, mc so the
/// packed A block (mc x kc) fills about half of L2, nc so the shared packed
/// B panel (kc x nc) stays within a bounded L3 share.
///
/// Note: kc participates in rounding (the packed path adds one partial sum
/// to C per k-block), so changing it changes low-order result bits — like
/// the microkernel choice, it is fixed per host, and neither the thread
/// count nor mc/nc affects results for a given kc.
struct GemmBlocking {
  size_t mc = 0;
  size_t kc = 0;
  size_t nc = 0;
};

/// The blocking the next GEMM dispatch will use. Derived on first call
/// from the cache geometry, then cached.
GemmBlocking GemmBlockSizes();

/// Test hook: overrides the blocked nest's Mc/Kc/Nc. Values are rounded
/// down to the microtile invariants above and floored at one tile; a 0
/// field keeps the cache-derived value for that dimension, and (0, 0, 0)
/// restores the derived blocking. Not meant to be flipped while GEMMs are
/// in flight (each dispatch snapshots the blocking once).
void SetGemmBlockSizes(size_t mc, size_t kc, size_t nc);

/// Worker count a dispatch actually fans out to for `requested` workers:
/// min(requested, hardware concurrency) unless oversubscription is enabled.
/// Clamping keeps thread scaling monotone by construction on small hosts —
/// extra software threads on a saturated compute-bound kernel only add
/// context switches — and never changes results (the packed path is
/// bitwise-invariant across worker counts).
size_t GemmEffectiveWorkers(size_t requested);

/// Test hook: when on, GemmEffectiveWorkers returns `requested` unclamped,
/// so tests can exercise real multi-worker execution (shared packed-B
/// reads, the TSan surface) even on single-core hosts. Off by default.
void SetGemmOversubscribe(bool on);

/// The cancel context the current thread's GEMM dispatches poll, or nullptr.
/// The packed driver captures this pointer at dispatch time, so row-block
/// tasks fanned out to the kernel pool poll the dispatching request's
/// context — an expired serving request stops burning CPU between row
/// blocks instead of finishing a doomed product (DESIGN.md §10).
const CancelContext* CurrentKernelCancellation();

/// RAII installer for CurrentKernelCancellation on this thread. Nests:
/// restores the previous context on destruction. The context must outlive
/// the scope and every dispatch made inside it.
class ScopedKernelCancellation {
 public:
  explicit ScopedKernelCancellation(const CancelContext* ctx);
  ~ScopedKernelCancellation();
  ScopedKernelCancellation(const ScopedKernelCancellation&) = delete;
  ScopedKernelCancellation& operator=(const ScopedKernelCancellation&) = delete;

 private:
  const CancelContext* prev_;
};

}  // namespace sampnn
