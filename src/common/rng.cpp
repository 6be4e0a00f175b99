#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <stdexcept>

namespace recd::common {

std::int64_t Rng::Uniform(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::Uniform: lo > hi");
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double Rng::UniformReal() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

bool Rng::Bernoulli(double p) {
  p = std::clamp(p, 0.0, 1.0);
  return std::bernoulli_distribution(p)(engine_);
}

double Rng::LogNormal(double mu, double sigma) {
  return std::lognormal_distribution<double>(mu, sigma)(engine_);
}

std::int64_t Rng::Poisson(double mean) {
  if (mean <= 0) return 0;
  // libstdc++ draws means >= 12 through lgamma, which writes glibc's
  // global `signgam`: serialize the draws so generators on different
  // threads do not race. The draws themselves are unchanged.
  static std::mutex lgamma_mutex;
  const std::lock_guard<std::mutex> lock(lgamma_mutex);
  return std::poisson_distribution<std::int64_t>(mean)(engine_);
}

double Rng::Exponential(double mean) {
  if (mean <= 0) {
    throw std::invalid_argument("Rng::Exponential: mean must be positive");
  }
  return std::exponential_distribution<double>(1.0 / mean)(engine_);
}

double Rng::Gaussian(double mean, double stddev) {
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

std::int64_t Rng::Zipf(std::int64_t n, double s) {
  if (n <= 0) throw std::invalid_argument("Rng::Zipf: n must be positive");
  if (s <= 0) throw std::invalid_argument("Rng::Zipf: s must be positive");
  // Rejection-inversion sampling (Hörmann & Derflinger 1996), ranks 1..n,
  // returned zero-based.
  const double nd = static_cast<double>(n);
  auto h = [s](double x) {
    if (std::abs(s - 1.0) < 1e-12) return std::log(x);
    return (std::pow(x, 1.0 - s) - 1.0) / (1.0 - s);
  };
  auto h_inv = [s](double x) {
    if (std::abs(s - 1.0) < 1e-12) return std::exp(x);
    return std::pow(1.0 + x * (1.0 - s), 1.0 / (1.0 - s));
  };
  const double hx0 = h(0.5) - 1.0;
  const double hn = h(nd + 0.5);
  std::uniform_real_distribution<double> uni(hx0, hn);
  while (true) {
    const double u = uni(engine_);
    const double x = h_inv(u);
    const auto k = static_cast<std::int64_t>(std::llround(x));
    const double kk = static_cast<double>(std::clamp<std::int64_t>(k, 1, n));
    if (u >= h(kk + 0.5) - std::pow(kk, -s)) {
      return std::clamp<std::int64_t>(k, 1, n) - 1;
    }
  }
}

std::int64_t SampleSessionSize(Rng& rng, double mean) {
  if (mean <= 1.0) return 1;
  // ~2% of sessions come from a pareto tail whose minimum scales with
  // the target mean (so small-mean datasets are not tail-dominated); the
  // body is log-normal with its mean solved so the blend hits `mean`.
  // For mean 16.5 the tail reaches beyond 1000 samples/session (Fig 3).
  constexpr double kTailProb = 0.02;
  constexpr double kTailAlpha = 1.5;
  const double tail_min = 8.0 * mean;
  const double tail_mean = tail_min * kTailAlpha / (kTailAlpha - 1.0);
  double body_mean =
      (mean - kTailProb * tail_mean) / (1.0 - kTailProb);
  body_mean = std::max(1.2, body_mean);
  if (rng.Bernoulli(kTailProb)) {
    const double u = std::max(1e-12, rng.UniformReal());
    const double x = tail_min / std::pow(u, 1.0 / kTailAlpha);
    return static_cast<std::int64_t>(std::min(x, 4096.0));
  }
  constexpr double kSigma = 0.8;
  const double mu = std::log(body_mean) - 0.5 * kSigma * kSigma;
  const double x = rng.LogNormal(mu, kSigma);
  return std::max<std::int64_t>(1, static_cast<std::int64_t>(std::llround(x)));
}

}  // namespace recd::common
