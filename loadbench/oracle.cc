#include "oracle.h"

#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <unordered_map>

#include "client.h"
#include "query/eval_nav.h"
#include "vpbn/materializer.h"
#include "vpbn/virtual_document.h"
#include "xml/serializer.h"

namespace loadbench {

namespace {

using vpbn::xml::NodeId;

/// Run \p fn(i) for i in [0, n) on up to \p threads threads.
template <typename Fn>
void ParallelIndex(size_t n, int threads, Fn fn) {
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next++; i < n; i = next++) fn(i);
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& th : pool) th.join();
}

/// One template answered for every literal: per context node (document
/// order) its serialized result nodes, indexed by key string value.
class TemplateTable {
 public:
  TemplateTable(const vpbn::xml::Document& doc, const Template& t) {
    vpbn::query::NavAdapter nav(doc);
    auto contexts = vpbn::query::EvalNav(doc, t.context);
    if (!contexts.ok()) return;
    const std::string key = t.key;
    for (NodeId c : *contexts) {
      std::set<std::string> keys;
      if (key[0] == '@') {
        auto v = nav.Attribute(c, key.substr(1));
        if (v.ok()) keys.insert(*v);
      } else {
        for (NodeId k : Walk(nav, c, key)) keys.insert(nav.StringValue(k));
      }
      std::vector<std::string> results;
      for (NodeId r : Walk(nav, c, t.result)) {
        results.push_back(vpbn::xml::SerializeNode(doc, r));
      }
      for (const std::string& k : keys) by_key_[k].push_back(rows_.size());
      rows_.push_back(std::move(results));
    }
    ok_ = true;
  }

  bool ok() const { return ok_; }

  Answer Lookup(const std::string& literal) const {
    ValuesHasher h;
    auto it = by_key_.find(literal);
    if (it != by_key_.end()) {
      for (size_t row : it->second) {
        for (const std::string& v : rows_[row]) h.Add(v);
      }
    }
    return {h.count(), h.digest()};
  }

 private:
  /// Child-axis steps of \p rel ("a/b") from \p from, in document order.
  static std::vector<NodeId> Walk(const vpbn::query::NavAdapter& nav,
                                  NodeId from, const std::string& rel) {
    std::vector<NodeId> frontier = {from};
    size_t start = 0;
    while (start <= rel.size()) {
      size_t slash = rel.find('/', start);
      if (slash == std::string::npos) slash = rel.size();
      vpbn::query::NodeTest test;
      test.kind = vpbn::query::NodeTest::Kind::kName;
      test.name = rel.substr(start, slash - start);
      std::vector<NodeId> next;
      for (NodeId n : frontier) {
        for (NodeId m : nav.Axis(n, vpbn::num::Axis::kChild, test)) {
          next.push_back(m);
        }
      }
      nav.SortUnique(&next);
      frontier = std::move(next);
      start = slash + 1;
    }
    return frontier;
  }

  bool ok_ = false;
  std::vector<std::vector<std::string>> rows_;  ///< results per context
  std::unordered_map<std::string, std::vector<size_t>> by_key_;
};

/// The full navigational evaluation of one stored query.
Answer EvalStored(const vpbn::xml::Document& doc, const std::string& path) {
  ValuesHasher h;
  auto nodes = vpbn::query::EvalNav(doc, path);
  if (nodes.ok()) {
    for (NodeId n : *nodes) h.Add(vpbn::xml::SerializeNode(doc, n));
  }
  return {h.count(), h.digest()};
}

/// One view query over its materialization, copies folded by provenance.
Answer EvalView(const vpbn::virt::Materialized& m, const std::string& path) {
  ValuesHasher h;
  auto nodes = vpbn::query::EvalNav(m.doc, path);
  if (nodes.ok()) {
    std::set<std::pair<uint32_t, uint32_t>> seen;
    for (NodeId n : *nodes) {
      const vpbn::virt::VirtualNode& p = m.provenance[n];
      if (seen.insert({p.node, p.vtype}).second) {
        h.Add(vpbn::xml::SerializeNode(m.doc, n));
      }
    }
  }
  return {h.count(), h.digest()};
}

/// Stored queries cross-checked against the full EvalNav, per template.
constexpr int kCrossChecksPerTemplate = 3;

}  // namespace

bool BuildOracle(
    const Plan& plan, const vpbn::xml::Document& source,
    const std::shared_ptr<const vpbn::storage::StoredDocument>& stored,
    int threads, std::vector<Answer>* answers, std::string* error) {
  answers->assign(plan.queries.size(), Answer{});
  const std::vector<Template>& templates = Templates();

  // Group the plan's queries by template.
  std::map<int, std::vector<size_t>> by_template;
  for (size_t i = 0; i < plan.queries.size(); ++i) {
    by_template[plan.queries[i].tmpl].push_back(i);
  }

  // View templates: materialize each view once.
  std::map<std::string, std::unique_ptr<vpbn::virt::Materialized>> views;
  for (const auto& [name, spec] : plan.views) {
    auto vdoc = vpbn::virt::VirtualDocument::Open(*stored, spec);
    if (!vdoc.ok()) {
      *error = "opening view " + name + ": " + vdoc.status().ToString();
      return false;
    }
    auto m = vpbn::virt::Materialize(*vdoc);
    if (!m.ok()) {
      *error = "materializing view " + name + ": " + m.status().ToString();
      return false;
    }
    views[name] = std::make_unique<vpbn::virt::Materialized>(std::move(*m));
  }

  std::vector<std::pair<size_t, Answer>> checks;  // (query, per-template)
  for (const auto& [tmpl, queries] : by_template) {
    const Template& t = templates[tmpl];
    if (t.view[0] != '\0') continue;
    TemplateTable table(source, t);
    if (!table.ok()) {
      *error = std::string("oracle context path failed: ") + t.context;
      return false;
    }
    for (size_t q : queries) {
      (*answers)[q] = table.Lookup(plan.queries[q].literal);
    }
    for (size_t k = 0; k < queries.size() && k < kCrossChecksPerTemplate;
         ++k) {
      checks.push_back({queries[k], (*answers)[queries[k]]});
    }
  }

  std::vector<size_t> view_queries;
  for (const auto& [tmpl, queries] : by_template) {
    if (templates[tmpl].view[0] == '\0') continue;
    view_queries.insert(view_queries.end(), queries.begin(), queries.end());
  }
  ParallelIndex(view_queries.size(), threads, [&](size_t i) {
    const Query& q = plan.queries[view_queries[i]];
    (*answers)[view_queries[i]] =
        EvalView(*views.at(templates[q.tmpl].view), q.path);
  });

  std::vector<Answer> full(checks.size());
  ParallelIndex(checks.size(), threads, [&](size_t i) {
    full[i] = EvalStored(source, plan.queries[checks[i].first].path);
  });
  for (size_t i = 0; i < checks.size(); ++i) {
    if (full[i].count != checks[i].second.count ||
        full[i].hash != checks[i].second.hash) {
      *error = "oracle disagrees with EvalNav on " +
               plan.queries[checks[i].first].path;
      return false;
    }
  }
  return true;
}

}  // namespace loadbench
