// Minimal streaming JSON writer shared by the metrics exporter, the
// trace exporter, and the bench harnesses.
//
// Handles comma placement, nesting, and string escaping; emits compact
// (single-line) JSON. Non-finite doubles are written as `null` so the
// output always parses.
//
//   util::JsonWriter w(out);
//   w.BeginObject();
//   w.Key("name").Value("query.batch.latency_ns");
//   w.Key("count").Value(std::uint64_t{42});
//   w.Key("buckets").BeginArray().Value(1).Value(2).EndArray();
//   w.EndObject();
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace parapll::util {

// Escapes `s` for inclusion inside a JSON string literal (quotes not
// included).
std::string JsonEscape(std::string_view s);

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  // Writes the key of the next key/value pair; must be inside an object.
  JsonWriter& Key(std::string_view key);

  JsonWriter& Value(std::string_view v);
  JsonWriter& Value(const char* v) { return Value(std::string_view(v)); }
  JsonWriter& Value(double v);
  JsonWriter& Value(bool v);
  JsonWriter& Value(std::uint64_t v);
  JsonWriter& Value(std::int64_t v);
  JsonWriter& Value(int v) { return Value(static_cast<std::int64_t>(v)); }
  JsonWriter& Value(unsigned v) { return Value(static_cast<std::uint64_t>(v)); }

  // Splices an already-serialized JSON fragment in value position (e.g.
  // the output of Summary::ToJson). The caller guarantees it is valid.
  JsonWriter& Raw(std::string_view json);

 private:
  void BeforeValue();  // comma / separator bookkeeping

  std::ostream& out_;
  std::vector<bool> needs_comma_;  // one level per open object/array
  bool after_key_ = false;
};

}  // namespace parapll::util
