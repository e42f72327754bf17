#include "obs/trace.h"

#include "common/string_util.h"

namespace prefdb {
namespace obs {

SpanPtr Span::Detached(std::string_view name) {
  SpanPtr span = std::make_unique<Span>();
  span->name = std::string(name);
  return span;
}

Span* Span::AddChild(std::string_view name) {
  children.push_back(Detached(name));
  return children.back().get();
}

void Span::Adopt(SpanPtr child) {
  if (child != nullptr) children.push_back(std::move(child));
}

double Span::ChildMicros() const {
  double total = 0.0;
  for (const SpanPtr& child : children) total += child->micros;
  return total;
}

std::string Span::ToString(bool include_timing, int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += name;
  std::string attrs;
  if (include_timing) {
    attrs += StrFormat("time=%.3fms self=%.3fms", micros / 1000.0,
                       SelfMicros() / 1000.0);
  }
  if (rows_in != kUnset || rows_out != kUnset) {
    if (!attrs.empty()) attrs += ' ';
    if (rows_in != kUnset && rows_out != kUnset) {
      attrs += StrFormat("rows=%zu -> %zu", rows_in, rows_out);
    } else if (rows_in != kUnset) {
      attrs += StrFormat("rows_in=%zu", rows_in);
    } else {
      attrs += StrFormat("rows=%zu", rows_out);
    }
  }
  if (score_entries != kUnset) {
    if (!attrs.empty()) attrs += ' ';
    attrs += StrFormat("score_entries=%zu", score_entries);
  }
  if (!detail.empty()) {
    if (!attrs.empty()) attrs += ' ';
    attrs += detail;
  }
  if (!attrs.empty()) out += "  (" + attrs + ")";
  out += '\n';
  for (const SpanPtr& child : children) {
    out += child->ToString(include_timing, indent + 1);
  }
  return out;
}

std::string Span::ToJson(bool include_timing) const {
  std::string out = "{\"name\": \"" + JsonEscape(name) + "\"";
  if (include_timing) {
    out += StrFormat(", \"micros\": %.1f, \"self_micros\": %.1f", micros,
                     SelfMicros());
  }
  if (rows_in != kUnset) out += StrFormat(", \"rows_in\": %zu", rows_in);
  if (rows_out != kUnset) out += StrFormat(", \"rows_out\": %zu", rows_out);
  if (score_entries != kUnset) {
    out += StrFormat(", \"score_entries\": %zu", score_entries);
  }
  if (!detail.empty()) out += ", \"detail\": \"" + JsonEscape(detail) + "\"";
  if (!children.empty()) {
    out += ", \"children\": [";
    for (size_t i = 0; i < children.size(); ++i) {
      if (i > 0) out += ", ";
      out += children[i]->ToJson(include_timing);
    }
    out += "]";
  }
  out += "}";
  return out;
}

namespace {

/// Duration of `span` for the Chrome export: measured micros when timing
/// is included, otherwise the structural duration (leaf = 1us, parent =
/// sum of children) that keeps the untimed export deterministic.
double ChromeDuration(const Span& span, bool include_timing) {
  if (include_timing) return span.micros;
  if (span.children.empty()) return 1.0;
  double total = 0.0;
  for (const SpanPtr& child : span.children) {
    total += ChromeDuration(*child, include_timing);
  }
  return total;
}

void AppendChromeEvents(const Span& span, bool include_timing, double ts,
                        bool* first, std::string* out) {
  double dur = ChromeDuration(span, include_timing);
  if (!*first) *out += ",\n";
  *first = false;
  *out += StrFormat(
      "{\"name\": \"%s\", \"cat\": \"prefdb\", \"ph\": \"X\", "
      "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1",
      JsonEscape(span.name).c_str(), ts, dur);
  std::string args;
  if (!span.detail.empty()) {
    args += "\"detail\": \"" + JsonEscape(span.detail) + "\"";
  }
  if (span.rows_in != Span::kUnset) {
    if (!args.empty()) args += ", ";
    args += StrFormat("\"rows_in\": %zu", span.rows_in);
  }
  if (span.rows_out != Span::kUnset) {
    if (!args.empty()) args += ", ";
    args += StrFormat("\"rows_out\": %zu", span.rows_out);
  }
  if (span.score_entries != Span::kUnset) {
    if (!args.empty()) args += ", ";
    args += StrFormat("\"score_entries\": %zu", span.score_entries);
  }
  if (!args.empty()) *out += ", \"args\": {" + args + "}";
  *out += "}";
  // Children start at the parent's start and run back to back: concurrent
  // tasks render as a sequential schedule, which keeps the layout a pure
  // function of the tree (no per-task start timestamps are recorded).
  double child_ts = ts;
  for (const SpanPtr& child : span.children) {
    AppendChromeEvents(*child, include_timing, child_ts, first, out);
    child_ts += ChromeDuration(*child, include_timing);
  }
}

void CollectSpans(const Span& span, std::string_view prefix,
                  std::vector<const Span*>* out) {
  if (std::string_view(span.name).substr(0, prefix.size()) == prefix) {
    out->push_back(&span);
  }
  for (const SpanPtr& child : span.children) {
    CollectSpans(*child, prefix, out);
  }
}

}  // namespace

std::string Span::ToChromeTrace(bool include_timing) const {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  AppendChromeEvents(*this, include_timing, 0.0, &first, &out);
  out += "\n]}\n";
  return out;
}

std::vector<const Span*> FindSpans(const Span& root, std::string_view prefix) {
  std::vector<const Span*> out;
  CollectSpans(root, prefix, &out);
  return out;
}

}  // namespace obs
}  // namespace prefdb
