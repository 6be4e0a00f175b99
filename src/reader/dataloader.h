// DataLoader specification (paper §2.1, §4.2).
//
// Mirrors the PyTorch DataLoader surface the paper extends: the job lists
// the sparse features it consumes, and RecD adds `dedup_sparse_features`
// — a List[List[featureKey]] of groups to deduplicate into IKJTs during
// feature conversion (Fig 5). Features not listed in any group convert to
// plain KJT entries.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "reader/transforms.h"

namespace recd::reader {

struct DataLoaderConfig {
  /// Features converted to a (non-deduplicated) KJT.
  std::vector<std::string> sparse_features;

  /// Feature groups converted to IKJTs; inner lists are grouped features
  /// sharing one inverse_lookup (paper's grouped IKJTs).
  std::vector<std::vector<std::string>> dedup_sparse_features;

  /// Features converted to partial IKJTs (§7): exact matches *and*
  /// shifted windows deduplicate, capturing the extra ~8% of duplicate
  /// bytes that sliding-window features leave behind.
  std::vector<std::string> partial_dedup_features;

  /// Rows per training batch.
  std::size_t batch_size = 512;

  /// Reader workers feeding this loader (the DPP-style reader fleet;
  /// Zhao et al., "Understanding Data Storage and Ingestion for
  /// Large-Scale Deep Recommendation Model Training"). 1 makes
  /// reader::ReaderPool run its stages inline on the caller's thread, no
  /// threads spawned; N > 1 runs N parallel Fill workers and N
  /// Convert/Process workers with ordered reassembly. Both drivers call
  /// the same stage functions, so the batch stream is byte-identical for
  /// any N.
  std::size_t num_workers = 1;

  /// Include dense features / labels in the batch.
  bool dense = true;

  /// Preprocessing pipeline applied by readers (O4 runs sparse
  /// transforms on deduplicated slices).
  std::vector<TransformSpec> transforms;
};

}  // namespace recd::reader
