#include "replay.h"

#include <chrono>
#include <cstdio>
#include <memory>

#include "server/protocol.h"

namespace loadbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Server::HandleQuery's wall_ms formatting.
std::string FormatMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

}  // namespace

int SpanLog::Open(const char* name, uint32_t request) {
  Span s;
  s.name = name;
  s.request = request;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = NowNs();
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanLog::Close(int index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  open_.pop_back();
}

vpbn::Status Replica::Load(const Plan& plan, const std::string& doc_path) {
  VPBN_RETURN_NOT_OK(catalog_.AddDocumentFile(kDocName, doc_path));
  for (const auto& [name, spec] : plan.views) {
    VPBN_RETURN_NOT_OK(catalog_.AddView(kDocName, name, spec));
  }
  return vpbn::Status::OK();
}

std::string Replica::HandleLine(std::string_view line, SpanLog* log,
                                uint32_t request, bool collect_stats,
                                ExecSample* sample) {
  using vpbn::server::Request;
  ScopedSpan root(log, "server.request", request);
  vpbn::Result<Request> parsed = [&] {
    ScopedSpan span(log, "server.parse", request);
    return vpbn::server::ParseRequest(line);
  }();
  if (!parsed.ok()) return vpbn::server::ErrorResponse(parsed.status());
  const Request& req = parsed.value();
  if (req.verb == Request::Verb::kQuery) {
    return HandleQuery(req, log, request, collect_stats, sample);
  }
  if (req.verb != Request::Verb::kReload) {
    return vpbn::server::ErrorResponse(
        vpbn::Status::InvalidArgument("replica serves QUERY and RELOAD"));
  }
  vpbn::Result<uint64_t> epoch = [&] {
    ScopedSpan span(log, "server.catalog.reload", request);
    return catalog_.Reload(req.doc);
  }();
  if (!epoch.ok()) return vpbn::server::ErrorResponse(epoch.status());
  std::string out = "{\"code\":0,";
  out += vpbn::server::JsonField("doc", req.doc);
  out += ",\"epoch\":";
  out += std::to_string(epoch.value());
  out += '}';
  return out;
}

std::string Replica::HandleQuery(const vpbn::server::Request& req,
                                 SpanLog* log, uint32_t request,
                                 bool collect_stats, ExecSample* sample) {
  using vpbn::server::ErrorResponse;
  using vpbn::server::ResultCache;
  std::shared_ptr<const vpbn::server::CatalogEntry> entry;
  std::shared_ptr<const vpbn::query::QueryEngine> engine;
  vpbn::Status found = vpbn::Status::OK();
  {
    ScopedSpan span(log, "server.catalog.find", request);
    entry = catalog_.Find(req.doc);
    if (entry) {
      auto engine_result = entry->EngineFor(req.view);
      if (engine_result.ok()) {
        engine = std::move(engine_result).value();
      } else {
        found = engine_result.status();
      }
    }
  }
  if (!entry) {
    return ErrorResponse(
        vpbn::Status::NotFound("no document '" + req.doc + "'"));
  }
  if (!engine) return ErrorResponse(found);

  const vpbn::query::ExecOptions effective =
      engine->EffectiveOptions(req.overrides);
  std::string key;
  std::shared_ptr<const ResultCache::Entry> cached;
  {
    ScopedSpan span(log, "server.cache.get", request);
    key = ResultCache::Key(req.doc, req.view, req.path, effective,
                           entry->epoch);
    cached = cache_.Get(key);
  }
  const bool cache_hit = cached != nullptr;
  if (!cached) {
    // The miss path, as the server runs it. Stats collection only changes
    // how the query runs, never the key or the answer.
    vpbn::query::ExecOverrides overrides = req.overrides;
    if (collect_stats) overrides.collect_stats = true;
    auto prepared = [&] {
      ScopedSpan s(log, "query.prepare", request);
      return engine->Prepare(req.path);
    }();
    if (!prepared.ok()) return ErrorResponse(prepared.status());
    {
      std::lock_guard<std::mutex> lock(plan_mu_);
      plan_counters_[engine->engine_id()] = {engine->plan_cache_hits(),
                                             engine->plan_cache_misses()};
    }
    auto executed = [&] {
      ScopedSpan s(log, "query.execute", request);
      return engine->Execute(prepared.value(), overrides);
    }();
    if (!executed.ok()) return ErrorResponse(executed.status());
    const vpbn::query::QueryResult& result = executed.value();
    auto fresh = std::make_shared<ResultCache::Entry>();
    {
      ScopedSpan s(log, "query.values", request);
      fresh->values = engine->StringValues(result);
    }
    fresh->result_nodes = result.size();
    fresh->plan = vpbn::query::PlanKindToString(prepared.value().plan());
    fresh->wall_ms = result.stats().wall_ms;
    if (sample) {
      sample->executed = true;
      sample->stats = result.stats();
    }
    {
      ScopedSpan s(log, "server.cache.put", request);
      cache_.Put(key, fresh);
    }
    cached = std::move(fresh);
  }

  ScopedSpan span(log, "server.render", request);
  using vpbn::server::JsonField;
  std::string out = "{\"code\":0,";
  out += JsonField("doc", req.doc);
  out += ',';
  out += JsonField("view", req.view);
  out += ",\"epoch\":";
  out += std::to_string(entry->epoch);
  out += ",\"count\":";
  out += std::to_string(cached->result_nodes);
  out += ',';
  out += JsonField("plan", cached->plan);
  out += ",\"cached\":";
  out += cache_hit ? "true" : "false";
  out += ",\"wall_ms\":";
  out += FormatMs(cached->wall_ms);
  out += ",\"values\":";
  out += vpbn::server::JsonStringArray(cached->values);
  out += '}';
  return out;
}

std::pair<uint64_t, uint64_t> Replica::PlanCacheTotals() const {
  std::lock_guard<std::mutex> lock(plan_mu_);
  std::pair<uint64_t, uint64_t> total{0, 0};
  for (const auto& [id, counters] : plan_counters_) {
    total.first += counters.first;
    total.second += counters.second;
  }
  return total;
}

}  // namespace loadbench
