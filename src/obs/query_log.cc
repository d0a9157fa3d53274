#include "obs/query_log.h"

#include <cstdio>

#include "obs/export.h"
#include "obs/metrics.h"

namespace lodviz::obs {

namespace {

std::string FingerprintHex(uint64_t fp) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

std::string EntryJson(const QueryLogEntry& e) {
  char lat[64];
  std::snprintf(lat, sizeof(lat), "%.3f", e.latency_us);
  std::string out = "{\"sequence\":" + std::to_string(e.sequence);
  out += ",\"fingerprint\":\"" + FingerprintHex(e.fingerprint) + "\"";
  out += ",\"query\":\"" + JsonEscape(e.query) + "\"";
  out += std::string(",\"latency_us\":") + lat;
  out += ",\"rows_out\":" + std::to_string(e.rows_out);
  out += ",\"intermediate_rows\":" + std::to_string(e.intermediate_rows);
  out += ",\"profile\":" + ProfileJson(e.profile) + "}";
  return out;
}

}  // namespace

QueryLog::QueryLog(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

QueryLog& QueryLog::Global() {
  static QueryLog log;
  return log;
}

bool QueryLog::Record(QueryLogEntry entry) {
  if (!ShouldRecord(entry.latency_us)) return false;
  if (entry.query.size() > kMaxQueryBytes) entry.query.resize(kMaxQueryBytes);
  MutexLock lock(&mu_);
  // First admission resolves the journal counter through the registry
  // while mu_ is held — the lock-order edge declared on mu_ (QueryLog::mu_
  // before MetricRegistry::mu_). Subsequent admissions increment through
  // the cached reference, lock-free.
  static Counter& admitted_counter =
      MetricRegistry::Global().GetCounter("obs.query_log.admitted");
  admitted_counter.Increment();
  entry.sequence = ++admitted_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(entry));
  } else {
    ring_[next_] = std::move(entry);
  }
  next_ = (next_ + 1) % capacity_;
  return true;
}

std::vector<QueryLogEntry> QueryLog::Entries() const {
  MutexLock lock(&mu_);
  std::vector<QueryLogEntry> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    // Full ring: next_ is the oldest slot.
    for (size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(next_ + i) % capacity_]);
    }
  }
  return out;
}

uint64_t QueryLog::total_admitted() const {
  MutexLock lock(&mu_);
  return admitted_;
}

std::string QueryLog::ToJson() const {
  std::vector<QueryLogEntry> entries = Entries();
  std::string out =
      "{\"threshold_us\":" + std::to_string(threshold_micros());
  out += ",\"capacity\":" + std::to_string(capacity_);
  out += ",\"admitted\":" + std::to_string(total_admitted());
  out += ",\"entries\":[";
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out += ",";
    out += EntryJson(entries[i]);
  }
  out += "]}";
  return out;
}

}  // namespace lodviz::obs
