#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/random.h"
#include "workload/auctions.h"

namespace loadbench {

namespace {

enum TemplateId {
  kItemId,
  kPersonId,
  kBidderPersonref,
  kAuctionItemref,
  kBidsItemref,
  kBypersonPersonref,
  kBypersonItemref,
  kBidsPriceGt,
  kBypersonPriceGt,
};

/// Hands out literals for one template: a seeded permutation of its value
/// space, consumed in order. Warm-up literals come first and are never
/// handed out again; timed literals wrap around the rest of the space, so a
/// timed text repeats only after every other one was sent, far beyond the
/// reach of the result and plan caches.
class LiteralPool {
 public:
  /// Ids `<prefix>0` .. `<prefix>(n-1)`.
  LiteralPool(vpbn::Rng* rng, std::string prefix, int n)
      : prefix_(std::move(prefix)) {
    order_.resize(static_cast<size_t>(std::max(n, 1)));
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = static_cast<int>(i);
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng->Uniform(i)]);
    }
  }

  /// Every later literal comes from those not yet handed out.
  void EndWarmup() { base_ = next_; }

  std::string Next() {
    size_t i = next_++;
    if (i >= order_.size()) i = base_ + (i - base_) % (order_.size() - base_);
    return prefix_ + std::to_string(order_[i]);
  }

 private:
  std::string prefix_;
  std::vector<int> order_;
  size_t next_ = 0;
  size_t base_ = 0;
};

/// Builds a plan's distinct-query table as requests are drawn.
class PlanBuilder {
 public:
  explicit PlanBuilder(Plan* plan) : plan_(plan) {}

  Request Add(int tmpl, const std::string& literal) {
    Query q;
    q.tmpl = tmpl;
    q.literal = literal;
    const std::string pattern = Templates()[tmpl].path;
    size_t slot = pattern.find("%s");
    q.path = pattern.substr(0, slot) + literal + pattern.substr(slot + 2);
    auto [it, inserted] = index_.emplace(q.Line(), plan_->queries.size());
    if (inserted) plan_->queries.push_back(std::move(q));
    return Request{static_cast<int>(it->second)};
  }

 private:
  Plan* plan_;
  std::map<std::string, size_t> index_;
};

/// Deals \p all round-robin over \p clients sequences.
Round Deal(const std::vector<Request>& all, int clients) {
  Round out(static_cast<size_t>(clients));
  for (size_t i = 0; i < all.size(); ++i) out[i % out.size()].push_back(all[i]);
  return out;
}

/// The class of each of a round's \p m requests: exactly m x share of each
/// class (the first class takes the rounding remainder), shuffled.
std::vector<size_t> RoundClasses(vpbn::Rng* rng, size_t m,
                                 const std::vector<double>& shares) {
  std::vector<size_t> classes;
  for (size_t c = 1; c < shares.size(); ++c) {
    const size_t k =
        static_cast<size_t>(static_cast<double>(m) * shares[c] + 0.5);
    classes.insert(classes.end(), k, c);
  }
  classes.insert(classes.end(), m - std::min(m, classes.size()), 0);
  for (size_t i = classes.size(); i > 1; --i) {
    std::swap(classes[i - 1], classes[rng->Uniform(i)]);
  }
  return classes;
}

/// Requests per round for a run of \p seconds at \p rate requests/s.
size_t RoundSize(int seconds, double rate, int rounds) {
  return std::max<size_t>(50, static_cast<size_t>(seconds * rate / rounds));
}

/// Nominal completion rates (requests/s) on a 4-core box: the request
/// count of a run is seconds x rate, fixed before anything is sent.
constexpr double kLookupRate = 3600;
constexpr double kViewsRate = 430;

/// Timed rounds per run. At --seconds 20 every round holds at least 1000
/// queries, so each round's p99 has at least ten samples beyond it.
constexpr int kLookupRounds = 16;
constexpr int kViewsRounds = 8;

void PlanLookup(vpbn::Rng* rng, int seconds, Plan* plan) {
  plan->scale = 1.0;
  plan->clients = 2;
  const auto counts = vpbn::workload::ScaledAuctions(plan->scale);
  // Four cost classes, cheapest first: item-ref lookups (~0.3 ms) and
  // person-ref lookups (~0.4 ms) answer from the value index; the @id
  // lookups scan attributes (~0.7 ms for people, ~2.8 ms for items). The
  // shares put p50 at the middle of the person-ref class and p99 at the
  // middle of the item-@id class, far from every class boundary.
  const std::vector<int> tmpls = {kBidderPersonref, kAuctionItemref,
                                  kPersonId, kItemId};
  const std::vector<double> shares = {0.60, 0.20, 0.18, 0.02};
  std::vector<LiteralPool> pools;
  pools.emplace_back(rng, "person", counts.num_people);
  pools.emplace_back(rng, "item", counts.num_items);
  pools.emplace_back(rng, "person", counts.num_people);
  pools.emplace_back(rng, "item", counts.num_items);

  PlanBuilder builder(plan);
  for (int i = 0; i < 400; ++i) {
    size_t t = rng->WeightedPick(shares);
    plan->warmup.push_back(builder.Add(tmpls[t], pools[t].Next()));
  }
  for (LiteralPool& pool : pools) pool.EndWarmup();
  for (int r = 0; r < kLookupRounds; ++r) {
    std::vector<Request> all;
    for (size_t t : RoundClasses(
             rng, RoundSize(seconds, kLookupRate, kLookupRounds), shares)) {
      all.push_back(builder.Add(tmpls[t], pools[t].Next()));
    }
    plan->rounds.push_back(Deal(all, plan->clients));
  }
  plan->tail_reloads = 5;
}

void PlanViews(vpbn::Rng* rng, int seconds, Plan* plan) {
  plan->scale = 0.25;
  plan->serve_snapshot = true;
  plan->cold_starts = 15;
  plan->clients = 2;
  plan->views = ViewSpecs();
  const auto counts = vpbn::workload::ScaledAuctions(plan->scale);
  const std::vector<int> tmpls = {kBidsItemref, kBypersonPersonref,
                                  kBypersonItemref};
  std::vector<LiteralPool> pools;
  pools.emplace_back(rng, "item", counts.num_items);
  pools.emplace_back(rng, "person", counts.num_people);
  pools.emplace_back(rng, "item", counts.num_items);

  PlanBuilder builder(plan);
  // The hot set: 32 fixed broad view queries (~2x10^3..6x10^3 rows, 50-130
  // KB each), well inside the 256-entry result cache, so a hit costs the
  // cache probe, the render and the wire bytes of a sizable answer. Their
  // bounds are spread evenly over each range (one per 16th, at a seeded
  // point inside it), so every seed's hot set has the same size profile.
  std::vector<Request> hot;
  char bound[32];
  for (int k = 0; k < 16; ++k) {
    const double u = (k + rng->NextDouble()) / 16;
    std::snprintf(bound, sizeof(bound), "%.3f", 60 + 40 * u);
    hot.push_back(builder.Add(kBidsPriceGt, bound));
    std::snprintf(bound, sizeof(bound), "%.3f", 40 + 40 * u);
    hot.push_back(builder.Add(kBypersonPriceGt, bound));
  }
  for (int i = 0; i < 150; ++i) {
    size_t t = rng->Uniform(tmpls.size());
    plan->warmup.push_back(builder.Add(tmpls[t], pools[t].Next()));
  }
  for (LiteralPool& pool : pools) pool.EndWarmup();

  // Class 0 is the hot set (three quarters), classes 1-3 the fresh
  // lookups of each template (a quarter together).
  const std::vector<double> shares = {0.75, 0.25 / 3, 0.25 / 3, 0.25 / 3};
  for (int r = 0; r < kViewsRounds; ++r) {
    std::vector<Request> all;
    for (size_t c : RoundClasses(
             rng, RoundSize(seconds, kViewsRate, kViewsRounds), shares)) {
      all.push_back(c == 0 ? hot[rng->Uniform(hot.size())]
                           : builder.Add(tmpls[c - 1], pools[c - 1].Next()));
    }
    Round round = Deal(all, plan->clients);
    // Client 0 reloads at fixed positions: a quarter and three quarters of
    // the way through its sequence of every round.
    std::vector<Request>& first = round[0];
    const auto n = static_cast<std::ptrdiff_t>(first.size());
    first.insert(first.begin() + 3 * n / 4, Request{});
    first.insert(first.begin() + n / 4, Request{});
    plan->rounds.push_back(std::move(round));
  }
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& ViewSpecs() {
  static const std::vector<std::pair<std::string, std::string>> kViews = {
      {"bids", "auction { itemref bidder { price } }"},
      {"byperson", "personref { price auction { itemref } }"}};
  return kViews;
}

const std::vector<Template>& Templates() {
  static const std::vector<Template> kTemplates = {
      {"item_id", "", "//item[@id = \"%s\"]/name", "//item", "@id", "name"},
      {"person_id", "", "//person[@id = \"%s\"]/name", "//person", "@id",
       "name"},
      {"bidder_personref", "", "//bidder[personref = \"%s\"]/price",
       "//bidder", "personref", "price"},
      {"auction_itemref", "", "//auction[itemref = \"%s\"]/bidder/price",
       "//auction", "itemref", "bidder/price"},
      {"bids_itemref", "bids", "//auction[itemref = \"%s\"]/bidder/price",
       nullptr, nullptr, nullptr},
      {"byperson_personref", "byperson",
       "//personref[text() = \"%s\"]/auction/itemref", nullptr, nullptr,
       nullptr},
      {"byperson_itemref", "byperson",
       "//personref[auction/itemref = \"%s\"]/price", nullptr, nullptr,
       nullptr},
      {"bids_price_gt", "bids", "//auction[bidder/price > %s]/bidder/price",
       nullptr, nullptr, nullptr},
      {"byperson_price_gt", "byperson",
       "//personref[price > %s]/auction/itemref", nullptr, nullptr, nullptr},
  };
  return kTemplates;
}

std::string Query::Line() const {
  std::string line = "QUERY ";
  line += kDocName;
  const char* view = Templates()[tmpl].view;
  if (view[0] != '\0') {
    line += '/';
    line += view;
  }
  line += ' ';
  line += path;
  return line;
}

bool MakePlan(const std::string& workload, uint64_t seed, int seconds,
              Plan* plan) {
  *plan = Plan{};
  plan->workload = workload;
  plan->seed = seed;
  vpbn::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5EED);
  if (workload == "lookup") {
    PlanLookup(&rng, seconds, plan);
  } else if (workload == "views") {
    PlanViews(&rng, seconds, plan);
  } else {
    return false;
  }
  plan->probe = plan->warmup.front();
  return true;
}

}  // namespace loadbench
