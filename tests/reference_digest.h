// One number for a trained train::ReferenceDlrm: the exact bits of its
// step losses, then every MLP weight and bias (bottom, then top, layer
// by layer) and every table weight (ModelTableOrder), folded in order
// with common::HashCombine. Tests compare it against a constant recorded
// from an earlier commit, so a rewrite of the training step that drifts
// by one ulp anywhere fails even where the two trainers drift together.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.h"
#include "train/model.h"
#include "train/reference.h"

namespace recd::testutil {

inline std::uint64_t ReferenceDigest(const train::ReferenceDlrm& ref,
                                     const std::vector<float>& losses) {
  std::uint64_t h = 0;
  const auto fold = [&h](std::span<const float> xs) {
    for (const float x : xs) {
      h = common::HashCombine(h, std::bit_cast<std::uint32_t>(x));
    }
  };
  fold(losses);
  for (const nn::Mlp* mlp : {&ref.bottom_mlp(), &ref.top_mlp()}) {
    for (std::size_t l = 0; l < mlp->num_layers(); ++l) {
      fold(mlp->layer(l).weights().data());
      fold(mlp->layer(l).bias());
    }
  }
  for (const auto& f : train::ModelTableOrder(ref.model())) {
    fold(ref.table(f).weights().data());
  }
  return h;
}

}  // namespace recd::testutil
