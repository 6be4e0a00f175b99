// Tests for the session-centric workload generator: the substitution for
// the paper's production dataset must actually produce the generative
// properties the paper characterizes (S, d(f), interleaving, sync
// groups).
#include <gtest/gtest.h>

#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/rng.h"
#include "datagen/generator.h"
#include "datagen/presets.h"
#include "datagen/sample.h"
#include "datagen/schema.h"

namespace recd::datagen {
namespace {

DatasetSpec TinySpec() {
  DatasetSpec spec;
  spec.seed = 11;
  spec.num_dense = 4;
  spec.mean_session_size = 8.0;
  spec.concurrent_sessions = 32;
  SparseFeatureSpec user;
  user.name = "user_seq";
  user.klass = FeatureClass::kUser;
  user.update = UpdateKind::kShiftAppend;
  user.mean_length = 8;
  user.stay_prob = 0.9;
  user.id_domain = 10'000;
  spec.sparse.push_back(user);
  SparseFeatureSpec item;
  item.name = "item_id";
  item.klass = FeatureClass::kItem;
  item.update = UpdateKind::kRedraw;
  item.mean_length = 2;
  item.stay_prob = 0.0;
  item.id_domain = 100'000;
  spec.sparse.push_back(item);
  return spec;
}

TEST(SchemaTest, FeatureIndexLookup) {
  const auto spec = TinySpec();
  EXPECT_EQ(spec.FeatureIndex("user_seq"), 0u);
  EXPECT_EQ(spec.FeatureIndex("item_id"), 1u);
  EXPECT_THROW((void)spec.FeatureIndex("nope"), std::out_of_range);
}

TEST(GeneratorTest, ProducesRequestedSampleCount) {
  TrafficGenerator gen(TinySpec());
  const auto traffic = gen.Generate(1000);
  EXPECT_EQ(traffic.features.size(), 1000u);
  EXPECT_EQ(traffic.events.size(), 1000u);
}

TEST(GeneratorTest, RequestIdsUniqueAndAligned) {
  TrafficGenerator gen(TinySpec());
  const auto traffic = gen.Generate(500);
  std::unordered_set<std::int64_t> ids;
  for (std::size_t i = 0; i < traffic.features.size(); ++i) {
    EXPECT_EQ(traffic.features[i].request_id, traffic.events[i].request_id);
    EXPECT_EQ(traffic.features[i].session_id, traffic.events[i].session_id);
    EXPECT_TRUE(ids.insert(traffic.features[i].request_id).second);
  }
}

TEST(GeneratorTest, TimestampsMonotoneInFeatureStream) {
  TrafficGenerator gen(TinySpec());
  const auto traffic = gen.Generate(300);
  for (std::size_t i = 1; i < traffic.features.size(); ++i) {
    EXPECT_GT(traffic.features[i].timestamp,
              traffic.features[i - 1].timestamp);
  }
}

TEST(GeneratorTest, EventsLandAfterImpressions) {
  TrafficGenerator gen(TinySpec());
  const auto traffic = gen.Generate(300);
  for (std::size_t i = 0; i < traffic.events.size(); ++i) {
    EXPECT_GT(traffic.events[i].timestamp, traffic.features[i].timestamp);
  }
}

TEST(GeneratorTest, DeterministicForSameSeed) {
  TrafficGenerator a(TinySpec());
  TrafficGenerator b(TinySpec());
  const auto ta = a.Generate(200);
  const auto tb = b.Generate(200);
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(ta.features[i].sparse, tb.features[i].sparse);
    EXPECT_EQ(ta.events[i].label, tb.events[i].label);
  }
}

TEST(GeneratorTest, ConcurrentGeneratorsMatchSingleThreaded) {
  // Sequence means >= 12 take libstdc++'s lgamma path in Rng::Poisson,
  // which writes glibc's global signgam. Two generators on two threads
  // must each produce exactly their single-threaded traffic (and, under
  // ThreadSanitizer, without a race report).
  auto spec_a = TinySpec();
  spec_a.sparse[0].mean_length = 40;
  auto spec_b = spec_a;
  spec_b.seed = 12;
  const auto alone_a = TrafficGenerator(spec_a).Generate(300);
  const auto alone_b = TrafficGenerator(spec_b).Generate(300);
  TrafficGenerator::Traffic a;
  TrafficGenerator::Traffic b;
  std::thread thread_a([&] { a = TrafficGenerator(spec_a).Generate(300); });
  std::thread thread_b([&] { b = TrafficGenerator(spec_b).Generate(300); });
  thread_a.join();
  thread_b.join();
  for (const auto& [alone, threaded] : {std::pair{&alone_a, &a},
                                        std::pair{&alone_b, &b}}) {
    ASSERT_EQ(threaded->features.size(), alone->features.size());
    for (std::size_t i = 0; i < alone->features.size(); ++i) {
      EXPECT_EQ(threaded->features[i].sparse, alone->features[i].sparse);
      EXPECT_EQ(threaded->features[i].dense, alone->features[i].dense);
      EXPECT_EQ(threaded->events[i].label, alone->events[i].label);
    }
  }
}

TEST(GeneratorTest, SparseArityMatchesSchema) {
  const auto spec = TinySpec();
  TrafficGenerator gen(spec);
  const auto traffic = gen.Generate(50);
  for (const auto& log : traffic.features) {
    EXPECT_EQ(log.sparse.size(), spec.num_sparse());
    EXPECT_EQ(log.dense.size(), spec.num_dense);
  }
}

TEST(GeneratorTest, UserFeatureStayProbabilityIsHonored) {
  // Within a session, adjacent impressions keep the user feature with
  // probability ~= stay_prob (the paper's d(f)).
  auto spec = TinySpec();
  spec.concurrent_sessions = 4;
  spec.mean_session_size = 50;
  TrafficGenerator gen(spec);
  const auto traffic = gen.Generate(5000);
  std::unordered_map<std::int64_t, const FeatureLog*> last_in_session;
  int stayed = 0;
  int transitions = 0;
  for (const auto& log : traffic.features) {
    const auto it = last_in_session.find(log.session_id);
    if (it != last_in_session.end()) {
      ++transitions;
      if (it->second->sparse[0] == log.sparse[0]) ++stayed;
    }
    last_in_session[log.session_id] = &log;
  }
  ASSERT_GT(transitions, 1000);
  const double measured =
      static_cast<double>(stayed) / static_cast<double>(transitions);
  EXPECT_NEAR(measured, 0.9, 0.05);
}

TEST(GeneratorTest, ItemFeatureAlmostAlwaysChanges) {
  auto spec = TinySpec();
  spec.concurrent_sessions = 4;
  TrafficGenerator gen(spec);
  const auto traffic = gen.Generate(3000);
  std::unordered_map<std::int64_t, const FeatureLog*> last;
  int stayed = 0;
  int transitions = 0;
  for (const auto& log : traffic.features) {
    const auto it = last.find(log.session_id);
    if (it != last.end()) {
      ++transitions;
      if (it->second->sparse[1] == log.sparse[1]) ++stayed;
    }
    last[log.session_id] = &log;
  }
  ASSERT_GT(transitions, 500);
  EXPECT_LT(static_cast<double>(stayed) / transitions, 0.1);
}

TEST(GeneratorTest, ShiftAppendPreservesOverlap) {
  // When a kShiftAppend feature changes, the new list should share all
  // but one element with the old one (the partial-duplication mechanism).
  auto spec = TinySpec();
  spec.concurrent_sessions = 2;
  spec.sparse[0].stay_prob = 0.0;  // change every impression
  TrafficGenerator gen(spec);
  const auto traffic = gen.Generate(500);
  std::unordered_map<std::int64_t, std::vector<Id>> last;
  int checked = 0;
  for (const auto& log : traffic.features) {
    const auto it = last.find(log.session_id);
    if (it != last.end() && it->second.size() == log.sparse[0].size() &&
        it->second.size() >= 2) {
      const auto& prev = it->second;
      const auto& cur = log.sparse[0];
      // cur should equal prev shifted left by one.
      EXPECT_TRUE(std::equal(prev.begin() + 1, prev.end(), cur.begin()));
      ++checked;
    }
    last[log.session_id] = log.sparse[0];
  }
  EXPECT_GT(checked, 100);
}

TEST(GeneratorTest, SyncGroupFeaturesUpdateTogether) {
  DatasetSpec spec = TinySpec();
  spec.sparse.clear();
  for (int i = 0; i < 2; ++i) {
    SparseFeatureSpec f;
    f.name = "g" + std::to_string(i);
    f.update = UpdateKind::kShiftAppend;
    f.mean_length = 6;
    f.stay_prob = 0.5;
    f.sync_group = 0;
    f.id_domain = 1000;
    spec.sparse.push_back(f);
  }
  spec.concurrent_sessions = 2;
  TrafficGenerator gen(spec);
  const auto traffic = gen.Generate(1000);
  std::unordered_map<std::int64_t, const FeatureLog*> last;
  for (const auto& log : traffic.features) {
    const auto it = last.find(log.session_id);
    if (it != last.end()) {
      const bool f0_same = it->second->sparse[0] == log.sparse[0];
      const bool f1_same = it->second->sparse[1] == log.sparse[1];
      EXPECT_EQ(f0_same, f1_same)
          << "grouped features must change in lockstep";
    }
    last[log.session_id] = &log;
  }
}

TEST(GeneratorTest, ClickProbabilityInRange) {
  TrafficGenerator gen(TinySpec());
  const auto traffic = gen.Generate(200);
  for (const auto& log : traffic.features) {
    const float p = ClickProbability(log);
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
}

TEST(GeneratorTest, InterleavingSpreadsSessionsAcrossBatches) {
  // Paper Fig 3 right: with production-scale interleaving (concurrent
  // sessions >> batch), a 4096-sample window holds ~1.15 samples per
  // session. Our pool is finite, so assert < 2.
  auto spec = TinySpec();
  spec.concurrent_sessions = 8192;
  spec.mean_session_size = 16.5;
  TrafficGenerator gen(spec);
  const auto traffic = gen.Generate(4096);
  std::unordered_set<std::int64_t> sessions;
  for (const auto& log : traffic.features) sessions.insert(log.session_id);
  const double spc = 4096.0 / static_cast<double>(sessions.size());
  EXPECT_LT(spc, 2.0);
}

// ------------------------------------------------------- serialization --

TEST(SampleSerializationTest, FeatureLogRoundTrip) {
  FeatureLog log;
  log.request_id = 42;
  log.session_id = -7;
  log.timestamp = 123456789;
  log.dense = {1.5f, -2.25f};
  log.sparse = {{1, 2, 3}, {}, {-9}};
  common::ByteWriter w;
  SerializeFeatureLog(log, w);
  common::ByteReader r(w.bytes());
  const auto back = DeserializeFeatureLog(r);
  EXPECT_EQ(back.request_id, log.request_id);
  EXPECT_EQ(back.session_id, log.session_id);
  EXPECT_EQ(back.timestamp, log.timestamp);
  EXPECT_EQ(back.dense, log.dense);
  EXPECT_EQ(back.sparse, log.sparse);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SampleSerializationTest, SampleRoundTrip) {
  Sample s;
  s.request_id = 1;
  s.session_id = 2;
  s.timestamp = 3;
  s.label = 1.0f;
  s.dense = {0.5f};
  s.sparse = {{5, 6}};
  common::ByteWriter w;
  SerializeSample(s, w);
  common::ByteReader r(w.bytes());
  EXPECT_EQ(DeserializeSample(r), s);
}

TEST(SampleSerializationTest, EventLogRoundTrip) {
  EventLog e;
  e.request_id = 10;
  e.session_id = 20;
  e.timestamp = 30;
  e.label = 0.0f;
  common::ByteWriter w;
  SerializeEventLog(e, w);
  common::ByteReader r(w.bytes());
  const auto back = DeserializeEventLog(r);
  EXPECT_EQ(back.request_id, 10);
  EXPECT_EQ(back.label, 0.0f);
}

// ------------------------------------------------------------- presets --

class RmPresetTest : public ::testing::TestWithParam<RmKind> {};

TEST_P(RmPresetTest, PresetShapesMatchPaper) {
  const auto kind = GetParam();
  const auto spec = RmDataset(kind, 0.25);
  EXPECT_GT(spec.num_sparse(), 16u);
  const auto groups = RmDedupGroups(kind, spec);
  switch (kind) {
    case RmKind::kRm1:
      // RM1: 16 sequence features in 5 groups (paper §6.1).
      ASSERT_EQ(groups.size(), 5u);
      {
        std::size_t total = 0;
        for (const auto& g : groups) total += g.size();
        EXPECT_EQ(total, 16u);
      }
      break;
    case RmKind::kRm2:
      ASSERT_EQ(groups.size(), 1u);
      EXPECT_EQ(groups[0].size(), 6u);
      break;
    case RmKind::kRm3:
      ASSERT_EQ(groups.size(), 1u);
      EXPECT_EQ(groups[0].size(), 11u);
      break;
  }
  for (const auto& g : groups) {
    for (const auto& name : g) {
      const auto& f = spec.sparse[spec.FeatureIndex(name)];
      EXPECT_GE(f.stay_prob, 0.9);
      EXPECT_EQ(f.klass, FeatureClass::kUser);
    }
  }
  EXPECT_FALSE(RmElementwiseDedupFeatures(kind, spec).empty());
}

INSTANTIATE_TEST_SUITE_P(AllRms, RmPresetTest,
                         ::testing::Values(RmKind::kRm1, RmKind::kRm2,
                                           RmKind::kRm3));

TEST(PresetTest, InvalidScaleThrows) {
  EXPECT_THROW((void)RmDataset(RmKind::kRm1, 0.0), std::invalid_argument);
  EXPECT_THROW((void)RmDataset(RmKind::kRm1, 1.5), std::invalid_argument);
}

TEST(PresetTest, CharacterizationDatasetMixesClasses) {
  const auto spec = CharacterizationDataset(64, 0.5);
  EXPECT_EQ(spec.num_sparse(), 64u);
  std::size_t users = 0;
  std::size_t items = 0;
  for (const auto& f : spec.sparse) {
    if (f.klass == FeatureClass::kUser) {
      ++users;
    } else {
      ++items;
    }
  }
  EXPECT_GT(users, items);
  EXPECT_GT(items, 0u);
}

}  // namespace
}  // namespace recd::datagen
