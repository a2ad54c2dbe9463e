#include "src/tensor/gemm.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>

#include "src/util/sync.h"

#include "src/obs/phase_sampler.h"
#include "src/telemetry/metrics_registry.h"
#include "src/telemetry/telemetry.h"
#include "src/tensor/aligned_buffer.h"
#include "src/tensor/kernel_config.h"
#include "src/tensor/packed_buffer_pool.h"
#include "src/util/check.h"
#include "src/util/deadline.h"
#include "src/util/threadpool.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SAMPNN_GEMM_X86 1
#include <immintrin.h>
#endif

namespace sampnn::gemm_internal {

namespace {

// Column chunking of the Nc loop: each Kc x Nc panel sweep is carved into
// up to this many column chunks per Mc row block, so the parallel task
// grid has slack in both dimensions — tall-skinny MLP products (one Mc
// block) still fan out across columns. Part of the fixed topology: the
// grid depends on shape and blocking only, never on the worker count.
constexpr size_t kColChunkTarget = 16;

// ---------------------------------------------------------------------------
// Microkernels: C_tile(kMR x kNR) += sum_p apanel[p][0..kMR) ⊗ bpanel[p][0..kNR).
// Panels are packed (contiguous, aligned, zero-padded), so the k-loop is
// two aligned B loads + kMR broadcasts + 2*kMR FMAs per step with no edge
// branches; tails only affect the final store.
// ---------------------------------------------------------------------------

#ifdef SAMPNN_GEMM_X86

__attribute__((target("avx2,fma"))) void MicroKernelAvx2(
    size_t kc, const float* ap, const float* bp, float* c, size_t ldc,
    size_t mr, size_t nr) {
  __m256 acc00 = _mm256_setzero_ps(), acc01 = _mm256_setzero_ps();
  __m256 acc10 = _mm256_setzero_ps(), acc11 = _mm256_setzero_ps();
  __m256 acc20 = _mm256_setzero_ps(), acc21 = _mm256_setzero_ps();
  __m256 acc30 = _mm256_setzero_ps(), acc31 = _mm256_setzero_ps();
  __m256 acc40 = _mm256_setzero_ps(), acc41 = _mm256_setzero_ps();
  __m256 acc50 = _mm256_setzero_ps(), acc51 = _mm256_setzero_ps();
  for (size_t p = 0; p < kc; ++p, ap += kMR, bp += kNR) {
    const __m256 b0 = _mm256_load_ps(bp);
    const __m256 b1 = _mm256_load_ps(bp + 8);
    __m256 a = _mm256_broadcast_ss(ap + 0);
    acc00 = _mm256_fmadd_ps(a, b0, acc00);
    acc01 = _mm256_fmadd_ps(a, b1, acc01);
    a = _mm256_broadcast_ss(ap + 1);
    acc10 = _mm256_fmadd_ps(a, b0, acc10);
    acc11 = _mm256_fmadd_ps(a, b1, acc11);
    a = _mm256_broadcast_ss(ap + 2);
    acc20 = _mm256_fmadd_ps(a, b0, acc20);
    acc21 = _mm256_fmadd_ps(a, b1, acc21);
    a = _mm256_broadcast_ss(ap + 3);
    acc30 = _mm256_fmadd_ps(a, b0, acc30);
    acc31 = _mm256_fmadd_ps(a, b1, acc31);
    a = _mm256_broadcast_ss(ap + 4);
    acc40 = _mm256_fmadd_ps(a, b0, acc40);
    acc41 = _mm256_fmadd_ps(a, b1, acc41);
    a = _mm256_broadcast_ss(ap + 5);
    acc50 = _mm256_fmadd_ps(a, b0, acc50);
    acc51 = _mm256_fmadd_ps(a, b1, acc51);
  }
  if (mr == kMR && nr == kNR) {
    float* cr = c;
    _mm256_storeu_ps(cr, _mm256_add_ps(_mm256_loadu_ps(cr), acc00));
    _mm256_storeu_ps(cr + 8, _mm256_add_ps(_mm256_loadu_ps(cr + 8), acc01));
    cr += ldc;
    _mm256_storeu_ps(cr, _mm256_add_ps(_mm256_loadu_ps(cr), acc10));
    _mm256_storeu_ps(cr + 8, _mm256_add_ps(_mm256_loadu_ps(cr + 8), acc11));
    cr += ldc;
    _mm256_storeu_ps(cr, _mm256_add_ps(_mm256_loadu_ps(cr), acc20));
    _mm256_storeu_ps(cr + 8, _mm256_add_ps(_mm256_loadu_ps(cr + 8), acc21));
    cr += ldc;
    _mm256_storeu_ps(cr, _mm256_add_ps(_mm256_loadu_ps(cr), acc30));
    _mm256_storeu_ps(cr + 8, _mm256_add_ps(_mm256_loadu_ps(cr + 8), acc31));
    cr += ldc;
    _mm256_storeu_ps(cr, _mm256_add_ps(_mm256_loadu_ps(cr), acc40));
    _mm256_storeu_ps(cr + 8, _mm256_add_ps(_mm256_loadu_ps(cr + 8), acc41));
    cr += ldc;
    _mm256_storeu_ps(cr, _mm256_add_ps(_mm256_loadu_ps(cr), acc50));
    _mm256_storeu_ps(cr + 8, _mm256_add_ps(_mm256_loadu_ps(cr + 8), acc51));
    return;
  }
  // Edge tile: spill the full register tile and add the live mr x nr
  // corner. The packed zero padding makes the dead lanes exact zeros.
  alignas(32) float tmp[kMR * kNR];
  _mm256_store_ps(tmp + 0 * kNR, acc00);
  _mm256_store_ps(tmp + 0 * kNR + 8, acc01);
  _mm256_store_ps(tmp + 1 * kNR, acc10);
  _mm256_store_ps(tmp + 1 * kNR + 8, acc11);
  _mm256_store_ps(tmp + 2 * kNR, acc20);
  _mm256_store_ps(tmp + 2 * kNR + 8, acc21);
  _mm256_store_ps(tmp + 3 * kNR, acc30);
  _mm256_store_ps(tmp + 3 * kNR + 8, acc31);
  _mm256_store_ps(tmp + 4 * kNR, acc40);
  _mm256_store_ps(tmp + 4 * kNR + 8, acc41);
  _mm256_store_ps(tmp + 5 * kNR, acc50);
  _mm256_store_ps(tmp + 5 * kNR + 8, acc51);
  for (size_t r = 0; r < mr; ++r) {
    for (size_t j = 0; j < nr; ++j) c[r * ldc + j] += tmp[r * kNR + j];
  }
}

#endif  // SAMPNN_GEMM_X86

using MicroKernelFn = void (*)(size_t, const float*, const float*, float*,
                               size_t, size_t, size_t);

MicroKernelFn PickMicroKernel() {
#ifdef SAMPNN_GEMM_X86
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return MicroKernelAvx2;
  }
#endif
  return MicroKernelPortable;
}

MicroKernelFn ActiveMicroKernel() {
  static const MicroKernelFn fn = PickMicroKernel();
  return fn;
}

// ---------------------------------------------------------------------------
// Packing. Panels are written tile-contiguous — B as [jr-tile][p][kNR],
// A as [ir-tile][p][kMR] — so the microkernel streams both with unit
// stride. Out-of-range rows/columns are written as zeros, which keeps the
// microkernel edge-free and makes full-width loads on the last tile exact.
// ---------------------------------------------------------------------------

// Packs B column tiles [t0, t1) of the current Kc x Nc panel. Tile indices
// are panel-absolute, so cooperative packing writes disjoint ranges of the
// shared buffer.
void PackBTiles(const float* b, size_t b_rs, size_t b_cs, size_t pc,
                size_t kc, size_t jc, size_t nc, size_t t0, size_t t1,
                float* __restrict__ out) {
  for (size_t t = t0; t < t1; ++t) {
    const size_t j0 = jc + t * kNR;
    const size_t jw = std::min(kNR, jc + nc - j0);
    for (size_t p = 0; p < kc; ++p) {
      const float* src = b + (pc + p) * b_rs + j0 * b_cs;
      float* dst = out + (t * kc + p) * kNR;
      if (b_cs == 1) {
        for (size_t j = 0; j < jw; ++j) dst[j] = src[j];
      } else {
        for (size_t j = 0; j < jw; ++j) dst[j] = src[j * b_cs];
      }
      for (size_t j = jw; j < kNR; ++j) dst[j] = 0.0f;
    }
  }
}

void PackA(const float* a, size_t a_rs, size_t a_cs, size_t ic, size_t mc,
           size_t pc, size_t kc, float alpha, float* __restrict__ out) {
  const size_t tiles = (mc + kMR - 1) / kMR;
  for (size_t t = 0; t < tiles; ++t) {
    const size_t i0 = ic + t * kMR;
    const size_t iw = std::min(kMR, ic + mc - i0);
    for (size_t p = 0; p < kc; ++p) {
      const float* src = a + i0 * a_rs + (pc + p) * a_cs;
      float* dst = out + (t * kc + p) * kMR;
      for (size_t r = 0; r < iw; ++r) dst[r] = alpha * src[r * a_rs];
      for (size_t r = iw; r < kMR; ++r) dst[r] = 0.0f;
    }
  }
}

// Per-thread A-pack scratch. Workers in the kernel pool are long-lived, so
// these warm up once and are reused across dispatches. The tag caches
// which (call, pc, ic) block currently sits in the scratch: consecutive
// column-chunk tasks of the same row block skip the re-pack.
thread_local AlignedBuffer t_apack;
struct ApackTag {
  uint64_t call = 0;
  size_t pc = 0;
  size_t ic = 0;
  bool valid = false;
};
thread_local ApackTag t_apack_tag;

// Distinguishes concurrent/successive GEMM calls in the A-pack cache tags.
std::atomic<uint64_t> g_call_serial{1};

// Blocked-nest telemetry, charged once per dispatch on scope exit (also on
// the cancellation early-outs): B panels packed, A blocks packed (across
// all workers), and microtile-sweep tasks executed.
struct BlockTally {
  explicit BlockTally(bool enabled) : on(enabled) {}
  ~BlockTally() {
    if (!on) return;
    static Counter& bp =
        MetricsRegistry::Get().GetCounter("tensor.gemm.pack_b_panels");
    static Counter& ap =
        MetricsRegistry::Get().GetCounter("tensor.gemm.pack_a_panels");
    static Counter& bt =
        MetricsRegistry::Get().GetCounter("tensor.gemm.block_tasks");
    bp.Add(b_packs);
    ap.Add(a_packs.load(std::memory_order_relaxed));
    bt.Add(tasks.load(std::memory_order_relaxed));
  }
  const bool on;
  uint64_t b_packs = 0;
  std::atomic<uint64_t> a_packs{0};
  std::atomic<uint64_t> tasks{0};
};

// Kernel pools, one per worker count, created lazily and kept for the
// process lifetime (drained and joined by static destruction). Keeping a
// pool per size sidesteps destroy-while-in-use races when tests flip
// SetGemmThreads between dispatches.
ThreadPool& PoolFor(size_t threads) {
  // Ranked below threadpool.pool: constructing a ThreadPool under this lock
  // may touch the pool's own mutex on its exception path.
  static Mutex mu{"tensor.gemm_pools", lockrank::kGemmPools};
  static std::map<size_t, std::unique_ptr<ThreadPool>> pools;
  MutexLock lock(mu);
  auto& slot = pools[threads];
  if (slot == nullptr) slot = std::make_unique<ThreadPool>(threads);
  return *slot;
}

}  // namespace

// Portable microkernel: same packed layout, same per-lane accumulation
// order; auto-vectorizes at the baseline ISA.
void MicroKernelPortable(size_t kc, const float* __restrict__ ap,
                         const float* __restrict__ bp, float* c, size_t ldc,
                         size_t mr, size_t nr) {
  float acc[kMR][kNR] = {};
  for (size_t p = 0; p < kc; ++p, ap += kMR, bp += kNR) {
    for (size_t r = 0; r < kMR; ++r) {
      const float a = ap[r];
      for (size_t j = 0; j < kNR; ++j) acc[r][j] += a * bp[j];
    }
  }
  for (size_t r = 0; r < mr; ++r) {
    for (size_t j = 0; j < nr; ++j) c[r * ldc + j] += acc[r][j];
  }
}

bool MicroKernelIsAvx2() {
#ifdef SAMPNN_GEMM_X86
  return ActiveMicroKernel() == MicroKernelAvx2;
#else
  return false;
#endif
}

void PackedGemm(size_t m, size_t n, size_t k, float alpha, const float* a,
                size_t a_rs, size_t a_cs, const float* b, size_t b_rs,
                size_t b_cs, float* c, size_t ldc) {
  PackedGemmParallel(m, n, k, alpha, a, a_rs, a_cs, b, b_rs, b_cs, c, ldc, 1);
}

void PackedGemmParallel(size_t m, size_t n, size_t k, float alpha,
                        const float* a, size_t a_rs, size_t a_cs,
                        const float* b, size_t b_rs, size_t b_cs, float* c,
                        size_t ldc, size_t threads) {
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == 0.0f) return;  // C += 0
  const MicroKernelFn micro = ActiveMicroKernel();
  // Serving-layer cancellation: the dispatching thread's context, if any,
  // is captured here and polled between panels and grid tasks (including
  // by the pool workers the tasks fan out to). A cancelled product leaves
  // C partially written; the cancellable caller discards it.
  const CancelContext* cancel = CurrentKernelCancellation();
  // Phase tag for /statusz: the dispatching thread advertises "gemm" with
  // the serving request id (0 outside the serving path) for the duration of
  // the product. Two relaxed stores; numerics are untouched.
  ScopedPhase gemm_phase("gemm", cancel != nullptr ? cancel->trace_id : 0);

  // One blocking snapshot per dispatch: mid-call SetGemmBlockSizes flips
  // never tear a product. kc participates in rounding; mc/nc (and the task
  // grid) never do.
  const GemmBlocking blk = GemmBlockSizes();
  const size_t kc_max = std::min(blk.kc, k);
  const size_t mc_max = blk.mc;
  const size_t nc_max = blk.nc;
  // Oversubscription never helps a compute-bound kernel, so the worker
  // count is clamped to hardware concurrency (monotone thread scaling by
  // construction); results are identical either way.
  const size_t workers = GemmEffectiveWorkers(threads);
  ThreadPool* pool = workers > 1 ? &PoolFor(workers) : nullptr;
  const uint64_t call_id =
      g_call_serial.fetch_add(1, std::memory_order_relaxed);
  BlockTally tally(TelemetryEnabled());

  // Shared B-panel buffer for the whole call, checked out of the pool —
  // written once per (jc, pc) block, read concurrently by every grid task.
  // Hot-path GEMMs hit the freelist and allocate nothing.
  const size_t b_panel_floats =
      (std::min(n, nc_max) + kNR - 1) / kNR * kNR * kc_max;
  PackedBufferPool::Handle b_handle =
      PackedBufferPool::Global().Acquire(b_panel_floats);
  float* const bpack = b_handle.data();
  // Per-thread A scratch requirement for this call's largest block.
  const size_t a_pack_floats =
      (std::min(m, mc_max) + kMR - 1) / kMR * kMR * kc_max;

  // Loop 5: B panel columns.
  for (size_t jc = 0; jc < n; jc += nc_max) {
    const size_t nc = std::min(nc_max, n - jc);
    const size_t nc_tiles = (nc + kNR - 1) / kNR;
    // Fixed-topology task grid over (Mc row blocks) x (column chunks):
    // shaped by the operands and blocking only, so every worker count
    // walks the same tasks and every C element keeps one writer.
    const size_t jchunk_tiles =
        std::max<size_t>(1, (nc_tiles + kColChunkTarget - 1) / kColChunkTarget);
    const size_t jchunks = (nc_tiles + jchunk_tiles - 1) / jchunk_tiles;
    const size_t ic_blocks = (m + mc_max - 1) / mc_max;
    const size_t tasks = ic_blocks * jchunks;
    // Loop 4: k blocks; one shared B pack per iteration.
    for (size_t pc = 0; pc < k; pc += kc_max) {
      if (cancel != nullptr && cancel->ShouldStop()) return;
      const size_t kc = std::min(kc_max, k - pc);
      // The panel is packed cooperatively when enough tiles exist to
      // amortize the fan-out, otherwise on the dispatching thread; either
      // way every worker then reads the same shared panel (ParallelFor /
      // Submit publish the writes).
      if (pool != nullptr && nc_tiles >= 2 * workers) {
        pool->ParallelFor(workers, [&](size_t w) {
          PackBTiles(b, b_rs, b_cs, pc, kc, jc, nc, nc_tiles * w / workers,
                     nc_tiles * (w + 1) / workers, bpack);
        });
      } else {
        PackBTiles(b, b_rs, b_cs, pc, kc, jc, nc, 0, nc_tiles, bpack);
      }
      ++tally.b_packs;

      // Loops 3-1 as one grid task: pack (or reuse) the A block, then
      // sweep this chunk's microtiles.
      auto run_task = [&](size_t t) {
        if (cancel != nullptr && cancel->ShouldStop()) return;
        if (tally.on) tally.tasks.fetch_add(1, std::memory_order_relaxed);
        const size_t ic = (t / jchunks) * mc_max;
        const size_t mc = std::min(mc_max, m - ic);
        ApackTag& tag = t_apack_tag;
        if (!tag.valid || tag.call != call_id || tag.pc != pc ||
            tag.ic != ic) {
          t_apack.GrowTo(a_pack_floats);
          PackA(a, a_rs, a_cs, ic, mc, pc, kc, alpha, t_apack.data());
          tag = {call_id, pc, ic, true};
          if (tally.on) tally.a_packs.fetch_add(1, std::memory_order_relaxed);
        }
        const float* apack = t_apack.data();
        const size_t jt0 = (t % jchunks) * jchunk_tiles;
        const size_t jt1 = std::min(nc_tiles, jt0 + jchunk_tiles);
        for (size_t jt = jt0; jt < jt1; ++jt) {
          const size_t jr = jt * kNR;
          const size_t nr = std::min(kNR, nc - jr);
          const float* bp = bpack + jt * kc * kNR;
          for (size_t ir = 0; ir < mc; ir += kMR) {
            const size_t mr = std::min(kMR, mc - ir);
            const float* ap = apack + (ir / kMR) * kc * kMR;
            micro(kc, ap, bp, c + (ic + ir) * ldc + jc + jr, ldc, mr, nr);
          }
        }
      };
      if (pool != nullptr && tasks > 1) {
        // Pool workers tag themselves too, so a snapshot mid-product shows
        // which threads are inside this request's grid tasks.
        pool->ParallelFor(tasks, [&](size_t t) {
          ScopedPhase block_phase("gemm_block",
                                  cancel != nullptr ? cancel->trace_id : 0);
          run_task(t);
        });
      } else {
        for (size_t t = 0; t < tasks; ++t) run_task(t);
      }
    }
  }
}

}  // namespace sampnn::gemm_internal
