// Micro-benchmarks for the fused/vectorized kernel layer
// (docs/ARCHITECTURE.md §12): scalar oracle vs AVX2 backend on the hot
// kernels — fused dedup-aware pooled lookup, the sparse SGD scatter,
// the MLP GEMMs (square and at the trainer's RM1 chunk shapes), and the
// pairwise feature interaction.
//
// Every timed pair is also checked bitwise (the layer's contract): the
// bench aborts nonzero if any vectorized output differs from scalar by
// a single bit, so the published speedups are speedups of the *same*
// float-op sequence, not of a relaxed one.
//
// Plain executable (not Google Benchmark), but named micro_* so
// check.sh --smoke passes it --benchmark_min_time; unknown flags are
// ignored (only --json is parsed, via bench::JsonReport).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "kernels/kernels.h"
#include "tensor/jagged.h"

namespace {

using recd::kernels::KernelBackend;

constexpr KernelBackend kS = KernelBackend::kScalar;
constexpr KernelBackend kV = KernelBackend::kVectorized;

/// Best-of-trials seconds per pass — best (not mean) so a stray
/// scheduler hiccup on the single-core CI host does not pollute a ratio.
template <typename Fn>
double SecondsPerPass(int trials, int reps, Fn&& fn) {
  double best = 0;
  for (int t = 0; t < trials; ++t) {
    recd::common::Stopwatch sw;
    sw.Start();
    for (int r = 0; r < reps; ++r) fn();
    sw.Stop();
    const double per_pass = sw.seconds() / reps;
    if (t == 0 || per_pass < best) best = per_pass;
  }
  return best;
}

void RequireBitwise(const std::vector<float>& scalar,
                    const std::vector<float>& vectorized, const char* what) {
  if (scalar.size() != vectorized.size() ||
      (!scalar.empty() &&
       std::memcmp(scalar.data(), vectorized.data(),
                   scalar.size() * sizeof(float)) != 0)) {
    std::fprintf(stderr,
                 "bench_micro_kernels: %s: vectorized output is not "
                 "bitwise-identical to scalar\n",
                 what);
    std::exit(1);
  }
}

std::vector<float> RandVec(std::size_t n, recd::common::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) {
    x = static_cast<float>(rng.UniformReal() * 2.0 - 1.0);
  }
  return v;
}

struct Row {
  std::string name;
  double scalar_s = 0;
  double vec_s = 0;
  double work = 0;       // elements (or FLOPs) per pass
  double bytes = 0;      // bytes moved per pass (0 = not meaningful)
  const char* unit = "elem";
};

void PrintRow(const Row& r) {
  const double speedup = r.vec_s > 0 ? r.scalar_s / r.vec_s : 1.0;
  std::printf("%-32s %10.1f %10.1f", r.name.c_str(), r.work / r.scalar_s / 1e6,
              r.vec_s > 0 ? r.work / r.vec_s / 1e6 : 0.0);
  if (r.bytes > 0 && r.vec_s > 0) {
    std::printf(" %8.2f", r.bytes / r.vec_s / 1e9);
  } else {
    std::printf(" %8s", "-");
  }
  std::printf(" %9.2fx\n", speedup);
}

/// Row for fn(kS) vs fn(kV): one call of each first, asserted bitwise
/// equal, then timed. fn(backend) runs the kernel into that backend's
/// own output buffer and returns it.
template <typename Fn>
Row TimedPair(std::string name, const char* unit, double work, int trials,
              int reps, Fn&& fn) {
  RequireBitwise(fn(kS), fn(kV), name.c_str());
  Row r{std::move(name)};
  r.unit = unit;
  r.work = work;
  r.scalar_s = SecondsPerPass(trials, reps, [&] { (void)fn(kS); });
  r.vec_s = SecondsPerPass(trials, reps, [&] { (void)fn(kV); });
  return r;
}

/// The three GEMMs of one Linear layer (out x in weights) on m rows:
/// forward MatmulABt, backward dX MatmulAB, backward dW AccumulateOuter.
/// With `relu`, g is masked where the forward's pre-activation is <= 0,
/// as Linear::Backward masks it: about half of g is then zero, the
/// share measured in the trainer's ReLU layers.
void AddLinearRows(std::vector<Row>& rows, const std::string& tag,
                   std::size_t m, std::size_t in, std::size_t out,
                   bool relu, int trials, int reps,
                   recd::common::Rng& rng) {
  namespace k = recd::kernels;
  const auto name = [&](const char* kernel) { return kernel + tag; };
  const double flops = 2.0 * m * in * out;
  const auto x = RandVec(m * in, rng);
  const auto w = RandVec(out * in, rng);
  auto g = RandVec(m * out, rng);
  std::vector<float> ys(m * out), yv(m * out);
  if (relu) {
    k::MatmulABt(kS, x.data(), m, in, w.data(), out, ys.data());
    k::ReluMask(kS, g.data(), ys.data(), g.size());
  }
  rows.push_back(TimedPair(
      name("matmul_abt_fwd"), "flop", flops, trials, reps,
      [&](KernelBackend be) -> const std::vector<float>& {
        auto& y = be == kS ? ys : yv;
        k::MatmulABt(be, x.data(), m, in, w.data(), out, y.data());
        return y;
      }));
  std::vector<float> dxs(m * in), dxv(m * in);
  rows.push_back(TimedPair(
      name("matmul_ab_bwd_dx"), "flop", flops, trials, reps,
      [&](KernelBackend be) -> const std::vector<float>& {
        auto& dx = be == kS ? dxs : dxv;
        k::MatmulAB(be, g.data(), m, out, w.data(), in, dx.data());
        return dx;
      }));
  // Backward dW: grad_w += g^T x with the g==0 skip (accumulates across
  // timed passes; only the first call of each side is compared).
  std::vector<float> gws(out * in), gwv(out * in), gbs(out), gbv(out);
  rows.push_back(TimedPair(
      name("accumulate_outer_dw"), "flop", flops, trials, reps,
      [&](KernelBackend be) -> const std::vector<float>& {
        auto& gw = be == kS ? gws : gwv;
        auto& gb = be == kS ? gbs : gbv;
        k::AccumulateOuter(be, g.data(), m, out, x.data(), in, gw.data(),
                           gb.data());
        return gw;
      }));
  RequireBitwise(gbs, gbv, "accumulate_outer grad_b");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace recd;
  bench::PrintHeader("Micro: fused/vectorized kernels vs scalar oracle");
  const bool have_simd = kernels::VectorizedAvailable();
  if (!have_simd) {
    std::printf(
        "AVX2 unavailable on this host: vectorized == scalar dispatch, "
        "all speedups will be ~1x\n");
  }
  const int trials = bench::SmokeOr(3, 1);
  const int reps = bench::SmokeOr(10, 1);
  common::Rng rng(1234);
  std::vector<Row> rows;

  // ---- Fused dedup-aware pooled lookup -------------------------------
  // Scalar baseline pools the EXPANDED batch (what a dedup-unaware
  // scalar trainer executes); the fused kernel pools each unique row
  // once and scatters through the inverse index — so this headline row
  // compounds dedup x SIMD, the RecD trainer-side win.
  {
    const std::size_t unique_rows = bench::SmokeOr<std::size_t>(2048, 64);
    const std::size_t dup = 4;  // DedupeFactor
    const std::size_t dim = 64;
    const std::size_t hash_size = 100'003;
    const std::size_t batch = unique_rows * dup;

    std::vector<std::vector<tensor::Id>> u0(unique_rows), u1(unique_rows);
    for (std::size_t r = 0; r < unique_rows; ++r) {
      const std::size_t len0 = 1 + r % 15;
      for (std::size_t j = 0; j < len0; ++j) {
        u0[r].push_back(rng.Uniform(0, 1'000'000));
      }
      u1[r].push_back(rng.Uniform(0, 1'000'000));
    }
    std::vector<std::int64_t> inverse(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      inverse[i] =
          static_cast<std::int64_t>((i * 2654435761u) % unique_rows);
    }
    std::vector<std::vector<tensor::Id>> e0(batch), e1(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      e0[i] = u0[static_cast<std::size_t>(inverse[i])];
      e1[i] = u1[static_cast<std::size_t>(inverse[i])];
    }
    const auto ujt0 = tensor::JaggedTensor::FromRows(u0);
    const auto ujt1 = tensor::JaggedTensor::FromRows(u1);
    const auto ejt0 = tensor::JaggedTensor::FromRows(e0);
    const auto ejt1 = tensor::JaggedTensor::FromRows(e1);
    const auto weights = RandVec(hash_size * dim, rng);
    const kernels::GroupFeature ugroup[] = {
        {&ujt0, weights.data(), hash_size},
        {&ujt1, weights.data(), hash_size}};
    const kernels::GroupFeature egroup[] = {
        {&ejt0, weights.data(), hash_size},
        {&ejt1, weights.data(), hash_size}};

    std::vector<float> out_scalar(batch * dim), out_vec(batch * dim);
    kernels::SumPoolGroup(kS, egroup, dim, out_scalar.data());
    kernels::FusedPooledLookup(kV, ugroup, inverse, dim, out_vec.data());
    RequireBitwise(out_scalar, out_vec, "fused pooled lookup");

    Row r{"fused_pooled_lookup"};
    r.work = static_cast<double>(ejt0.total_values() + ejt1.total_values())
             * dim;  // expanded lookups: the logical work both paths do
    r.bytes = r.work * 2 * sizeof(float);
    r.scalar_s = SecondsPerPass(trials, reps, [&] {
      kernels::SumPoolGroup(kS, egroup, dim, out_scalar.data());
    });
    r.vec_s = SecondsPerPass(trials, reps, [&] {
      kernels::FusedPooledLookup(kV, ugroup, inverse, dim,
                                 out_vec.data());
    });
    rows.push_back(r);

    // Same kernel, SIMD only (both sides fused): isolates the
    // vectorization win from the dedup win.
    Row r2{"fused_lookup_simd_only"};
    r2.work = static_cast<double>(ujt0.total_values() +
                                  ujt1.total_values()) * dim;
    r2.bytes = r2.work * 2 * sizeof(float);
    r2.scalar_s = SecondsPerPass(trials, reps, [&] {
      kernels::FusedPooledLookup(kS, ugroup, inverse, dim,
                                 out_scalar.data());
    });
    r2.vec_s = SecondsPerPass(trials, reps, [&] {
      kernels::FusedPooledLookup(kV, ugroup, inverse, dim,
                                 out_vec.data());
    });
    RequireBitwise(out_scalar, out_vec, "fused lookup (simd only)");
    rows.push_back(r2);

    // Sparse SGD scatter over the expanded batch (identical work both
    // backends; dim-axis SIMD only).
    const auto grad = RandVec(batch * dim, rng);
    auto w_scalar = weights;
    auto w_vec = weights;
    kernels::ScatterSgdUpdate(kS, ejt0, grad.data(), kernels::Pool::kSum,
                              0.01f, w_scalar.data(), hash_size, dim);
    kernels::ScatterSgdUpdate(kV, ejt0, grad.data(), kernels::Pool::kSum,
                              0.01f, w_vec.data(), hash_size, dim);
    RequireBitwise(w_scalar, w_vec, "scatter sgd update");
    Row r3{"scatter_sgd_update"};
    r3.work = static_cast<double>(ejt0.total_values()) * dim;
    r3.bytes = r3.work * 3 * sizeof(float);  // read w + grad, write w
    r3.scalar_s = SecondsPerPass(trials, reps, [&] {
      kernels::ScatterSgdUpdate(kS, ejt0, grad.data(),
                                kernels::Pool::kSum, 0.01f,
                                w_scalar.data(), hash_size, dim);
    });
    r3.vec_s = SecondsPerPass(trials, reps, [&] {
      kernels::ScatterSgdUpdate(kV, ejt0, grad.data(),
                                kernels::Pool::kSum, 0.01f, w_vec.data(),
                                hash_size, dim);
    });
    rows.push_back(r3);
  }

  // ---- GEMMs (the MLP forward/backward shapes) -----------------------
  // A square shape, then one canonical gradient chunk of the executed
  // trainer (64 rows) through the RM1 top MLP, 359 -> 512 -> 256.
  // Both RM1 layers are ReLU layers, so their g is ReLU-masked.
  AddLinearRows(rows, "", bench::SmokeOr<std::size_t>(256, 16), 256, 256,
                false, trials, reps, rng);
  AddLinearRows(rows, "_rm1_359x512", 64, 359, 512, true, trials, reps,
                rng);
  AddLinearRows(rows, "_rm1_512x256", 64, 512, 256, true, trials, reps,
                rng);

  // ---- Pairwise interaction (RM1: 22 inputs of dim 128, 64 rows) -----
  {
    const std::size_t m = 64;
    const std::size_t f = 22;
    const std::size_t d = 128;
    const std::size_t width = d + f * (f - 1) / 2;
    std::vector<std::vector<float>> x(f);
    std::vector<const float*> xp;
    for (auto& v : x) {
      v = RandVec(m * d, rng);
      xp.push_back(v.data());
    }
    const auto grad_out = RandVec(m * width, rng);
    const double pairs = static_cast<double>(m) * d * (f * (f - 1) / 2);
    std::vector<float> outs(m * width), outv(m * width);
    rows.push_back(TimedPair(
        "interaction_fwd", "flop", 2.0 * pairs, trials, reps,
        [&](KernelBackend be) -> const std::vector<float>& {
          auto& out = be == kS ? outs : outv;
          kernels::InteractionForward(be, xp, m, d, out.data());
          return out;
        }));
    // Accumulates across timed passes; the first calls are compared.
    std::vector<float> gs(f * m * d), gv(f * m * d);
    std::vector<float*> gsp, gvp;
    for (std::size_t t = 0; t < f; ++t) {
      gsp.push_back(gs.data() + t * m * d);
      gvp.push_back(gv.data() + t * m * d);
    }
    rows.push_back(TimedPair(
        "interaction_bwd", "flop", 4.0 * pairs, trials, reps,
        [&](KernelBackend be) -> const std::vector<float>& {
          kernels::InteractionBackward(be, grad_out.data(), xp, m, d,
                                       be == kS ? gsp : gvp);
          return be == kS ? gs : gv;
        }));
  }

  std::printf("%-32s %10s %10s %8s %10s\n", "kernel", "scalar M/s",
              "vec M/s", "GB/s", "speedup");
  bench::PrintRule();
  for (const auto& r : rows) PrintRow(r);
  bench::PrintRule();
  std::printf("all outputs bitwise-identical across backends\n");

  bench::JsonReport report("bench_micro_kernels");
  report.SetHostField("avx2", have_simd ? 1 : 0);
  for (const auto& r : rows) {
    const double speedup = r.vec_s > 0 ? r.scalar_s / r.vec_s : 1.0;
    report.Add(r.name + "_speedup", speedup, std::nullopt,
               "x");
    report.Add(r.name + "_vec_rate",
               r.work / (r.vec_s > 0 ? r.vec_s : r.scalar_s) / 1e6,
               std::nullopt,
               std::string("M") + r.unit + "/s");
    if (r.bytes > 0 && r.vec_s > 0) {
      report.Add(r.name + "_vec_gbps", r.bytes / r.vec_s / 1e9,
                 std::nullopt, "GB/s");
    }
  }
  return report.WriteIfRequested(argc, argv) ? 0 : 1;
}
