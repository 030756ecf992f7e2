/// \file random_equivalence_test.cc
/// \brief Differential property test at the *query* level: for random
/// documents, random vDataGuides and a battery of generated paths, the
/// virtual evaluator must select exactly the virtual nodes whose copies a
/// physical evaluation of the materialized transformation selects.
///
/// This generalizes eval_virtual_test's books-only equivalence to arbitrary
/// shapes (deep recursion, text sprinkled everywhere, all three level-array
/// cases occurring at random).

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "query/engine.h"
#include "query/eval_nav.h"
#include "query/eval_virtual.h"
#include "vpbn/materializer.h"
#include "workload/random_trees.h"

namespace vpbn::query {
namespace {

/// Builds a battery of paths exercising the virtual type forest: child
/// chains, '//' jumps, parent/ancestor hops and text steps, derived from
/// the vDataGuide's own vpaths so most paths are non-empty.
std::vector<std::string> PathBattery(const vdg::VDataGuide& vg) {
  std::vector<std::string> out;
  for (vdg::VTypeId t = 0; t < vg.num_vtypes() && out.size() < 12; ++t) {
    if (vg.IsTextVType(t)) continue;
    const std::string& label = vg.label(t);
    out.push_back("//" + label);
    out.push_back("//" + label + "/*");
    out.push_back("//" + label + "/text()");
    if (vg.parent(t) != vdg::kNullVType) {
      out.push_back("//" + label + "/..");
      out.push_back("//" + label + "/ancestor::*");
    }
    out.push_back("//" + label + "/descendant::*");
    out.push_back("//" + label + "/following-sibling::*");
  }
  return out;
}

class RandomEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomEquivalenceTest, VirtualMatchesMaterialized) {
  uint64_t seed = GetParam();
  workload::RandomTreeOptions topts;
  topts.seed = seed;
  topts.num_nodes = 120;
  topts.num_labels = 5;
  topts.text_prob = 0.25;
  xml::Document doc = workload::GenerateRandomTree(topts);
  storage::StoredDocument stored = storage::StoredDocument::Build(doc);

  for (uint64_t spec_seed = 1; spec_seed <= 6; ++spec_seed) {
    workload::RandomSpecOptions sopts;
    sopts.seed = seed * 100 + spec_seed;
    sopts.num_types = 5;
    // The last two specs per document also exercise star expansion.
    sopts.star_prob = spec_seed >= 5 ? 0.4 : 0.0;
    std::string spec = workload::GenerateRandomSpec(stored.dataguide(), sopts);
    SCOPED_TRACE(spec);
    auto v = virt::VirtualDocument::Open(stored, spec);
    ASSERT_TRUE(v.ok()) << v.status();
    auto m = virt::Materialize(*v);
    ASSERT_TRUE(m.ok()) << m.status();

    auto key = [](const virt::VirtualNode& n) {
      return (static_cast<uint64_t>(n.node) << 32) | n.vtype;
    };
    // Detect duplication: a virtual node materialized more than once. Order
    // axes are exists-quantified and asymmetric under duplication (see
    // theorem1_property_test), so sibling paths are skipped then.
    std::set<uint64_t> all_keys;
    bool duplicated = false;
    for (const virt::VirtualNode& p : m->provenance) {
      if (!all_keys.insert(key(p)).second) duplicated = true;
    }
    for (const std::string& path : PathBattery(v->vguide())) {
      if (duplicated && path.find("sibling") != std::string::npos) continue;
      SCOPED_TRACE(path);
      auto virtual_result = EvalVirtual(*v, path);
      auto physical_result = EvalNav(m->doc, path);
      ASSERT_TRUE(virtual_result.ok()) << virtual_result.status();
      ASSERT_TRUE(physical_result.ok()) << physical_result.status();
      std::set<uint64_t> virtual_set;
      for (const virt::VirtualNode& n : *virtual_result) {
        virtual_set.insert(key(n));
      }
      std::set<uint64_t> physical_set;
      for (xml::NodeId id : *physical_result) {
        physical_set.insert(key(m->provenance[id]));
      }
      EXPECT_EQ(virtual_set, physical_set);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 13));

/// Determinism under concurrency: queries run sequentially on their
/// caller's thread, and parallelism comes from many callers sharing one
/// engine. Four threads run the whole battery on shared engines (each
/// starting at a different query); every node list (not just node set) must
/// equal the one a lone caller got.
class ParallelDeterminismTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelDeterminismTest, ThreadsDoNotChangeResults) {
  uint64_t seed = GetParam();
  workload::RandomTreeOptions topts;
  topts.seed = seed;
  topts.num_nodes = 600;
  topts.num_labels = 4;
  topts.text_prob = 0.25;
  auto doc = std::make_shared<const xml::Document>(
      workload::GenerateRandomTree(topts));
  auto stored = std::make_shared<const storage::StoredDocument>(
      storage::StoredDocument::Build(*doc));

  QueryEngine nav_engine(doc);
  QueryEngine stored_engine(stored);

  workload::RandomSpecOptions sopts;
  sopts.seed = seed * 37 + 1;
  sopts.num_types = 4;
  std::string spec = workload::GenerateRandomSpec(stored->dataguide(), sopts);
  SCOPED_TRACE(spec);
  auto v = virt::VirtualDocument::OpenShared(stored, spec);
  ASSERT_TRUE(v.ok()) << v.status();
  QueryEngine virtual_engine(*v);

  // Physical paths over labels the generator emits; virtual paths from the
  // vDataGuide battery. Every query runs on every applicable substrate.
  std::vector<std::string> physical = {
      "//e0",           "//e1/*",          "//e0//e1",
      "//e2/text()",    "//e0[e1]",        "//*[text()]",
      "//e1/..",        "//e0/descendant::*",
  };
  struct Job {
    const QueryEngine* engine;
    std::string path;
    QueryResult::NodeList expect;
  };
  std::vector<Job> jobs;
  for (const std::string& path : physical) {
    for (const QueryEngine* engine : {&nav_engine, &stored_engine}) {
      jobs.push_back({engine, path, {}});
    }
  }
  for (const std::string& path : PathBattery((*v)->vguide())) {
    jobs.push_back({&virtual_engine, path, {}});
  }
  for (Job& job : jobs) {
    auto r = job.engine->Execute(job.path);
    ASSERT_TRUE(r.ok()) << job.path << ": " << r.status();
    job.expect = r->nodes();
  }

  constexpr size_t kThreads = 4;
  std::vector<std::vector<std::string>> diverged(kThreads);
  std::vector<std::thread> callers;
  for (size_t t = 0; t < kThreads; ++t) {
    callers.emplace_back([&, t] {
      for (size_t i = 0; i < jobs.size(); ++i) {
        const Job& job = jobs[(i + t * jobs.size() / kThreads) % jobs.size()];
        auto r = job.engine->Execute(job.path);
        if (!r.ok() || !(r->nodes() == job.expect)) {
          diverged[t].push_back(job.path);
        }
      }
    });
  }
  for (std::thread& c : callers) c.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(diverged[t].empty())
        << "thread " << t << " diverged on " << diverged[t].front();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDeterminismTest,
                         ::testing::Range<uint64_t>(1, 7));

}  // namespace
}  // namespace vpbn::query
