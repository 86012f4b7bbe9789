#include "runtime/checkpoint.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "support/json.hpp"
#include "support/str.hpp"

namespace dpgen::runtime {

namespace detail {

std::string bytes_to_hex(const std::uint8_t* data, std::size_t n) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(n * 2);
  for (std::size_t i = 0; i < n; ++i) {
    out += digits[data[i] >> 4];
    out += digits[data[i] & 0xf];
  }
  return out;
}

namespace {
int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::vector<std::uint8_t> hex_to_bytes(const std::string& hex) {
  DPGEN_CHECK(hex.size() % 2 == 0,
              "checkpoint payload hex has odd length");
  std::vector<std::uint8_t> out(hex.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const int hi = hex_digit(hex[2 * i]);
    const int lo = hex_digit(hex[2 * i + 1]);
    DPGEN_CHECK(hi >= 0 && lo >= 0,
                "checkpoint payload hex has a non-hex character");
    out[i] = static_cast<std::uint8_t>((hi << 4) | lo);
  }
  return out;
}

}  // namespace detail

namespace {

void write_tile(json::Writer& w, const IntVec& tile) {
  w.begin_array();
  for (Int c : tile) w.value(static_cast<long long>(c));
  w.end_array();
}

/// A JSON number that must be an integer in [lo, hi]; casting anything
/// else (1e300, 2.5) would be undefined or lossy.  Bounds stay within
/// 2^53, where every integer is exact in a double.
long long read_int(const json::Value& v, long long lo, long long hi) {
  const double x = v.as_number();
  DPGEN_CHECK(x >= static_cast<double>(lo) &&
                  x <= static_cast<double>(hi) && x == std::floor(x),
              cat("integer field ", x, " is not in [", lo, ", ", hi, "]"));
  return static_cast<long long>(x);
}

constexpr long long kMaxExact = 1LL << 53;
constexpr long long kMaxInt = std::numeric_limits<int>::max();

IntVec read_tile(const json::Value& v) {
  IntVec out;
  for (const auto& c : v.as_array())
    out.push_back(static_cast<Int>(read_int(*c, -kMaxExact, kMaxExact)));
  return out;
}

CheckpointDoc parse_checkpoint(const std::string& text) {
  const json::ValuePtr root = json::parse(text);
  DPGEN_CHECK(root->is(json::Kind::kObject), "not a JSON object");
  DPGEN_CHECK(root->at("schema").as_string() == "dpgen.checkpoint.v1",
              cat("unknown schema '", root->at("schema").as_string(), "'"));
  CheckpointDoc doc;
  doc.problem = root->at("problem").as_string();
  doc.params = root->at("params").as_string();
  doc.dim = static_cast<int>(read_int(root->at("dim"), 1, kMaxInt));
  doc.scalar_bytes =
      static_cast<int>(read_int(root->at("scalar_bytes"), 1, kMaxInt));
  for (const auto& t : root->at("executed").as_array()) {
    IntVec tile = read_tile(*t);
    DPGEN_CHECK(static_cast<int>(tile.size()) == doc.dim,
                "executed tile of wrong dim");
    doc.executed.push_back(std::move(tile));
  }
  for (const auto& ev : root->at("edges").as_array()) {
    CheckpointDoc::Edge e;
    e.consumer = read_tile(ev->at("consumer"));
    DPGEN_CHECK(static_cast<int>(e.consumer.size()) == doc.dim,
                "edge consumer of wrong dim");
    e.edge = static_cast<int>(read_int(ev->at("edge"), 0, kMaxInt));
    e.payload_bytes = detail::hex_to_bytes(ev->at("payload").as_string());
    doc.edges.push_back(std::move(e));
  }
  const long long declared =
      read_int(root->at("completed_tiles"), 0, kMaxExact);
  DPGEN_CHECK(declared == static_cast<long long>(doc.executed.size()),
              cat("completed_tiles=", declared, " but ", doc.executed.size(),
                  " executed tiles listed"));
  if (root->has("ranks")) {
    for (const auto& rv : root->at("ranks").as_array()) {
      CheckpointDoc::RankState r;
      r.rank = static_cast<int>(read_int(rv->at("rank"), 0, kMaxInt));
      r.pending_tiles = read_int(rv->at("pending_tiles"), 0, kMaxExact);
      r.ready_tiles = read_int(rv->at("ready_tiles"), 0, kMaxExact);
      r.buffered_edges = read_int(rv->at("buffered_edges"), 0, kMaxExact);
      doc.ranks.push_back(r);
    }
  }
  return doc;
}

}  // namespace

std::string encode_checkpoint_json(const CheckpointDoc& doc) {
  json::Writer w;
  w.begin_object();
  w.key("schema").value("dpgen.checkpoint.v1");
  w.key("problem").value(doc.problem);
  w.key("params").value(doc.params);
  w.key("dim").value(doc.dim);
  w.key("scalar_bytes").value(doc.scalar_bytes);
  w.key("completed_tiles")
      .value(static_cast<long long>(doc.executed.size()));
  w.key("executed").begin_array();
  for (const auto& t : doc.executed) write_tile(w, t);
  w.end_array();
  w.key("edges").begin_array();
  for (const auto& e : doc.edges) {
    w.begin_object();
    w.key("consumer");
    write_tile(w, e.consumer);
    w.key("edge").value(e.edge);
    w.key("payload").value(detail::bytes_to_hex(e.payload_bytes.data(),
                                                e.payload_bytes.size()));
    w.end_object();
  }
  w.end_array();
  w.key("ranks").begin_array();
  for (const auto& r : doc.ranks) {
    w.begin_object();
    w.key("rank").value(r.rank);
    w.key("pending_tiles").value(r.pending_tiles);
    w.key("ready_tiles").value(r.ready_tiles);
    w.key("buffered_edges").value(r.buffered_edges);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

CheckpointDoc load_checkpoint_json(const std::string& path) {
  std::ifstream in(path);
  DPGEN_CHECK(in.good(), cat("cannot open checkpoint file ", path));
  std::stringstream buf;
  buf << in.rdbuf();
  // Shape errors (a missing key, a string where a number belongs) surface
  // from the JSON reader as std::runtime_error; every rejection leaves
  // here as dpgen::Error naming the file.
  try {
    return parse_checkpoint(buf.str());
  } catch (const std::exception& e) {
    raise(cat("checkpoint ", path, ": ", e.what()));
  }
}

void write_checkpoint_file(const std::string& path, const std::string& text) {
  // Unique temporary per call: concurrent writers (two ranks flushing the
  // same store) must not truncate each other's temp file or race the
  // rename — each write lands whole and the last rename wins.
  static std::atomic<unsigned> write_seq{0};
  const std::string tmp =
      cat(path, ".tmp.", write_seq.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream out(tmp, std::ios::out | std::ios::trunc);
    DPGEN_CHECK(out.good(), cat("cannot write checkpoint file ", tmp));
    out << text << '\n';
    out.flush();
    DPGEN_CHECK(out.good(), cat("short write to checkpoint file ", tmp));
  }
  DPGEN_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
              cat("cannot move checkpoint into place at ", path));
}

}  // namespace dpgen::runtime
