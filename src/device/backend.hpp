/// \file backend.hpp
/// \brief Compute-backend abstraction (the device abstraction layer).
///
/// Neko "uses a device abstraction layer to manage device memory, data
/// transfer and kernel launches from Fortran. Behind this interface, Neko
/// calls the native accelerator implementation" (§5.1). In this CPU-only
/// reproduction the layer dispatches element loops and vector kernels to a
/// serial or an OpenMP backend; solver code never references a concrete
/// backend, so adding one (as Neko adds CUDA/HIP/OpenCL) touches nothing
/// above this interface.
///
/// Dispatch is *blocked*: callbacks receive contiguous index ranges, never a
/// per-index std::function call, so the serial backend runs a kernel as one
/// plain loop (zero abstraction overhead) and parallel backends amortize the
/// dispatch over whole chunks. Reductions are deterministic by construction:
/// every backend partitions the index space into the same fixed-size blocks
/// and combines the block partials in ascending block order, so dots, norms
/// and CFL numbers are bitwise identical for every backend and thread count.
#pragma once

#include <algorithm>
#include <array>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/types.hpp"

namespace felis {
class ParamMap;
}  // namespace felis

namespace felis::device {

/// Chunk callback: one contiguous index range [begin, end) plus the worker
/// slot (in [0, concurrency())) executing it. Chunks may run concurrently;
/// the callback must only write data disjoint per index or per chunk, and
/// must not throw (an exception escaping a parallel region is fatal).
using RangeFn = std::function<void(lidx_t begin, lidx_t end, int worker)>;

/// Per-index convenience callback (tests, setup-time loops).
using IndexFn = std::function<void(lidx_t i)>;

/// Max-reduction block callback: return the partial over [begin, end).
using SpanFn = std::function<real_t(lidx_t begin, lidx_t end)>;

/// Fixed block length of the deterministic reductions. Independent of the
/// backend and thread count on purpose: the block partition *is* the
/// floating-point association, so changing it changes results.
inline constexpr lidx_t kReduceGrain = 2048;

namespace detail {

inline void accumulate(real_t& acc, real_t term) { acc += term; }

template <usize K>
void accumulate(std::array<real_t, K>& acc, const std::array<real_t, K>& term) {
  for (usize c = 0; c < K; ++c) acc[c] += term[c];
}

/// In-order partials of L consecutive reduction blocks of length `len`, the
/// first starting at index `first`, after prepare() (if any) on their range.
/// The blocks advance in lockstep: step j adds term(first + j) to block 0,
/// term(first + G + j) to block 1, ..., so the L add chains are independent
/// and overlap in the FP pipeline, while each block's own association stays
/// 0 + t0 + t1 + ... in index order.
template <int L, class Term, class Prepare, class R>
void lockstep_partials(const Term& term, const Prepare& prepare, lidx_t first,
                       lidx_t len, R* out) {
  if constexpr (!std::is_same_v<Prepare, std::nullptr_t>)
    prepare(first, first + (L - 1) * kReduceGrain + len);
  R acc[L] = {};
  for (lidx_t j = 0; j < len; ++j)
    for (int b = 0; b < L; ++b)
      accumulate(acc[b], term(first + b * kReduceGrain + j));
  for (int b = 0; b < L; ++b) out[b] = acc[b];
}

}  // namespace detail

class Backend {
 public:
  virtual ~Backend() = default;
  virtual std::string name() const = 0;

  /// Number of worker slots chunk callbacks may occupy concurrently (>= 1).
  virtual int concurrency() const = 0;

  /// Dispatch fn over [0, n) in contiguous blocks.
  ///
  /// grain > 0: exactly ceil(n/grain) blocks, block b covering
  /// [b*grain, min(n, (b+1)*grain)) — the same partition on every backend
  /// (this is what the deterministic reductions build on).
  /// grain <= 0: the backend picks a block size for load balance; the serial
  /// backend then makes a single call fn(0, n, 0).
  virtual void parallel_for_blocked(lidx_t n, lidx_t grain,
                                    const RangeFn& fn) = 0;

  // ---- conveniences built on the virtual dispatch ---------------------------

  /// Execute fn(i) for i in [0, n); iterations may run concurrently, so fn
  /// must only write disjoint per-i data.
  void parallel_for(lidx_t n, const IndexFn& fn);

  /// Deterministic sum over [0, n) of term(i), which returns a real_t or,
  /// for K sums in one pass, a std::array<real_t, K>. The association is
  /// fixed: [0, n) splits into kReduceGrain blocks, each block's partial is
  /// an in-order accumulation from zero, and the partials are added to zero
  /// in ascending block order — the same bits on every backend and thread
  /// count. Blocks are evaluated four (then two, then one) at a time in
  /// lockstep so their add chains overlap.
  ///
  /// `prepare(begin, end)`, when given, runs on each contiguous index range
  /// right before the terms of that range are summed (the range covers whole
  /// lockstep groups, and ranges are disjoint): a fused kernel can produce
  /// the values its terms read while they are still in cache. term and
  /// prepare may run concurrently on disjoint ranges.
  template <class Term, class Prepare = std::nullptr_t>
  auto reduce_sum(lidx_t n, const Term& term, const Prepare& prepare = nullptr) {
    using R = std::decay_t<std::invoke_result_t<const Term&, lidx_t>>;
    R total{};
    if (n <= 0) return total;
    const lidx_t nblocks = (n + kReduceGrain - 1) / kReduceGrain;
    const lidx_t nfull = n / kReduceGrain;
    std::vector<R> partials(static_cast<usize>(nblocks));
    // Dispatch whole lockstep groups, so parallel chunks keep all four lanes.
    const lidx_t ngroups = (nblocks + 3) / 4;
    parallel_for_blocked(ngroups, /*grain=*/0, [&](lidx_t g0, lidx_t g1, int) {
      const lidx_t b1 = std::min(nblocks, 4 * g1);
      const lidx_t full_end = std::min(b1, nfull);
      constexpr lidx_t G = kReduceGrain;
      R* out = partials.data();
      lidx_t b = 4 * g0;
      for (; b + 4 <= full_end; b += 4)
        detail::lockstep_partials<4>(term, prepare, b * G, G, out + b);
      for (; b + 2 <= full_end; b += 2)
        detail::lockstep_partials<2>(term, prepare, b * G, G, out + b);
      for (; b < full_end; ++b)
        detail::lockstep_partials<1>(term, prepare, b * G, G, out + b);
      if (b < b1)  // the ragged last block
        detail::lockstep_partials<1>(term, prepare, b * G, n - b * G, out + b);
    });
    for (const R& p : partials) detail::accumulate(total, p);
    return total;
  }

  /// Max over [0, n) (max is associative and commutative, so this is exact
  /// for any partition); identity is -inf, so n == 0 returns -inf.
  real_t reduce_max(lidx_t n, const SpanFn& fn, lidx_t grain = kReduceGrain);
};

/// Runs every chunk on the calling thread, in ascending block order.
class SerialBackend final : public Backend {
 public:
  std::string name() const override { return "serial"; }
  int concurrency() const override { return 1; }
  void parallel_for_blocked(lidx_t n, lidx_t grain, const RangeFn& fn) override;
};

/// Chunks dispatched across OpenMP worker threads. `num_threads == 0` means
/// the runtime default (OMP_NUM_THREADS or the hardware concurrency).
///
/// Under ThreadSanitizer the OpenMP runtime (libgomp) is not instrumented and
/// its barriers are invisible to TSan, so this backend transparently switches
/// to an equivalent std::thread worker pool — same blocked contract, same
/// results — which TSan can verify end to end. The same pool serves builds
/// without OpenMP support.
class OpenMpBackend final : public Backend {
 public:
  explicit OpenMpBackend(int num_threads = 0) : num_threads_(num_threads) {}
  std::string name() const override { return "openmp"; }
  int concurrency() const override;
  void parallel_for_blocked(lidx_t n, lidx_t grain, const RangeFn& fn) override;

 private:
  int num_threads_ = 0;  ///< 0 = runtime default
};

/// Shared backend instance by name: "serial", "openmp", or "auto" (OpenMP
/// when more than one thread is available, serial otherwise). Throws
/// felis::Error on anything else. Logs the first process-wide choice.
Backend& backend_by_name(const std::string& name);

/// Process-default backend: the FELIS_BACKEND environment variable
/// (serial|openmp|auto) when set, otherwise "auto". The chosen backend and
/// its thread count are logged once per process via the Logger.
Backend& default_backend();

/// Params-driven selection: the "device.backend" key when present, otherwise
/// default_backend(). This is what case drivers pass to make_rank_setup so
/// the whole solver stack picks the backend up from the case file.
Backend& select_backend(const ParamMap& params);

}  // namespace felis::device
