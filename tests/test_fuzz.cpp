// Property fuzzing: randomly generated problem specifications executed
// through two independent paths — the tiled hybrid engine (2 ranks x 2
// threads) and the serial dense-array reference — must agree at every
// location.  This exercises arbitrary dependency sets (mixed directions
// across dimensions, multi-tile-crossing vectors), widths, couplings and
// boundary clipping far beyond the hand-written problems.
//
// The edge-message decoder and the checkpoint loader are fuzzed too:
// seeded mutations of valid wires and documents must either decode (load)
// exactly or raise dpgen::Error.

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <limits>

#include "engine/serial.hpp"
#include "fuzz_util.hpp"
#include "poly/parse.hpp"
#include "problems/problems.hpp"
#include "runtime/driver.hpp"
#include "spec/parser.hpp"

namespace dpgen::engine {
namespace {

using fuzz::Rng;
using fuzz::generic_kernel;
using fuzz::random_spec;

class FuzzSweep : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSweep, TiledHybridMatchesSerialReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  int ndeps = 0;
  spec::ProblemSpec s = random_spec(rng, &ndeps);
  SCOPED_TRACE(s.to_text());
  tiling::TilingModel model(std::move(s));
  IntVec params{7};
  CenterFn kernel = generic_kernel(ndeps);

  auto serial = run_serial(model, params, kernel);

  EngineOptions opt;
  opt.ranks = 2;
  opt.threads = 2;
  opt.record_all = true;
  opt.poison_buffers = true;  // surface any read of an unfilled ghost
  auto tiled = run(model, params, kernel, opt);

  ASSERT_EQ(tiled.values.size(), serial.values.size());
  for (const auto& [point, value] : serial.values) {
    ASSERT_DOUBLE_EQ(tiled.at(point), value) << vec_to_string(point);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::Range(1, 25));

TEST(FuzzSpecSerialisation, RandomSpecsRoundTripThroughText) {
  for (int seed = 1; seed <= 15; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed));
    int ndeps = 0;
    spec::ProblemSpec s = random_spec(rng, &ndeps);
    s.validate();
    spec::ProblemSpec back = spec::parse_spec(s.to_text());
    EXPECT_EQ(back.var_names(), s.var_names());
    EXPECT_EQ(back.widths(), s.widths());
    EXPECT_EQ(back.deps().size(), s.deps().size());
    for (std::size_t j = 0; j < s.deps().size(); ++j)
      EXPECT_EQ(back.deps()[j].vec, s.deps()[j].vec);
    EXPECT_EQ(back.space().size(), s.space().size());
    // The serialised constraints must define exactly the same polytope.
    EXPECT_TRUE(poly::semantically_equal(back.space(), s.space()))
        << s.to_text();
  }
}

TEST(SemanticEquality, DetectsInclusionAndDifference) {
  poly::Vars v({"x", "y"});
  poly::System tri(v);
  tri.add(poly::parse_constraint("x >= 0", v));
  tri.add(poly::parse_constraint("y >= 0", v));
  tri.add(poly::parse_constraint("x + y <= 4", v));
  poly::System box(v);
  box.add(poly::parse_constraint("x >= 0", v));
  box.add(poly::parse_constraint("y >= 0", v));
  box.add(poly::parse_constraint("x <= 4", v));
  box.add(poly::parse_constraint("y <= 4", v));
  EXPECT_TRUE(poly::semantically_contains(box, tri));   // tri inside box
  EXPECT_FALSE(poly::semantically_contains(tri, box));  // box not in tri
  EXPECT_FALSE(poly::semantically_equal(tri, box));
  // A redundant reformulation is recognised as equal.
  poly::System tri2 = tri;
  tri2.add(poly::parse_constraint("x <= 9", v));
  EXPECT_TRUE(poly::semantically_equal(tri, tri2));
}

/// Mutates a valid edge wire of scalar type S per seed and decodes it.
/// The mutations are bit flips, truncation, extension with random bytes,
/// an overwrite of one header field (edge, count or a coordinate) with a
/// boundary value, and a receiver whose dimension is off by one.
template <typename S>
void fuzz_decode_edge(std::uint64_t seed) {
  constexpr int kEdges = 6;
  const Int kWords[] = {-1,
                        0,
                        1,
                        kEdges,
                        std::numeric_limits<Int>::max(),
                        std::numeric_limits<Int>::min(),
                        std::numeric_limits<Int>::max() / 8 + 1};
  fuzz::Rng rng(seed);
  int decoded = 0, rejected = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const int dim = static_cast<int>(rng.range(1, 4));
    IntVec consumer(static_cast<std::size_t>(dim));
    for (Int& c : consumer) c = rng.range(-5, 5);
    std::vector<S> payload(static_cast<std::size_t>(rng.range(0, 12)));
    for (S& v : payload) v = static_cast<S>(rng.range(-400, 400)) / 4;
    std::vector<std::uint8_t> buf = runtime::detail::encode_edge<S>(
        static_cast<int>(rng.range(0, kEdges - 1)), consumer, payload);
    int recv_dim = dim;
    switch (rng.range(0, 4)) {
      case 0:
        for (Int n = rng.range(1, 4); n > 0; --n) {
          const auto bit = static_cast<std::size_t>(
              rng.range(0, static_cast<Int>(buf.size()) * 8 - 1));
          buf[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        }
        break;
      case 1:
        buf.resize(static_cast<std::size_t>(
            rng.range(0, static_cast<Int>(buf.size()) - 1)));
        break;
      case 2:
        for (Int n = rng.range(1, 2 * sizeof(S)); n > 0; --n)
          buf.push_back(static_cast<std::uint8_t>(rng.range(0, 255)));
        break;
      case 3: {
        const Int word = kWords[rng.range(0, std::size(kWords) - 1)];
        const auto field = static_cast<std::size_t>(rng.range(0, 1 + dim));
        std::memcpy(buf.data() + field * sizeof(Int), &word, sizeof(Int));
        break;
      }
      default:
        recv_dim = dim == 1 || rng.range(0, 1) == 0 ? dim + 1 : dim - 1;
        break;
    }
    int edge = -1;
    IntVec got;
    std::vector<S> out;
    try {
      runtime::detail::decode_edge<S>(buf, recv_dim, kEdges, &edge, &got,
                                      &out);
    } catch (const Error&) {
      ++rejected;
      continue;
    }
    ++decoded;
    Int declared = 0;
    std::memcpy(&declared, buf.data() + sizeof(Int), sizeof(Int));
    ASSERT_GE(declared, 0);
    EXPECT_EQ(static_cast<Int>(out.size()), declared);
    EXPECT_EQ(buf.size(), runtime::detail::edge_wire_header(recv_dim) +
                              out.size() * sizeof(S));
    EXPECT_TRUE(edge >= 0 && edge < kEdges) << edge;
    EXPECT_EQ(static_cast<int>(got.size()), recv_dim);
  }
  // Both outcomes must occur, or the mutations miss the decoder's checks.
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

class DecodeEdgeFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DecodeEdgeFuzz, DoubleWiresDecodeExactlyOrThrow) {
  fuzz_decode_edge<double>(static_cast<std::uint64_t>(GetParam()));
}

TEST_P(DecodeEdgeFuzz, FloatWiresDecodeExactlyOrThrow) {
  fuzz_decode_edge<float>(static_cast<std::uint64_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecodeEdgeFuzz, ::testing::Range(1, 5));

/// Overwrites the number that follows the first `anchor` in `text` with
/// `value` (no-op when `anchor` does not occur).
void set_number(std::string& text, const std::string& anchor,
                const std::string& value) {
  const std::size_t at = text.find(anchor);
  if (at == std::string::npos) return;
  const std::size_t begin = at + anchor.size();
  std::size_t end = begin;
  while (end < text.size() &&
         std::strchr("+-.eE0123456789", text[end]) != nullptr)
    ++end;
  text.replace(begin, end - begin, value);
}

/// Mutates a valid dpgen.checkpoint.v1 document per seed, loads it through
/// load_checkpoint_json and restores it into a CheckpointStore<double>.
/// The mutations are truncation, bit flips, a corrupt hex payload, a wrong
/// dim or scalar_bytes, and huge or fractional numbers in count,
/// coordinate and index fields.
void fuzz_checkpoint_loader(std::uint64_t seed) {
  const char* kNumbers[] = {"0",    "-1",   "1e300",      "-1e300",
                            "2.5",  "1e18", "4294967296", "9007199254740993",
                            "8"};
  const char* kAnchors[] = {"\"completed_tiles\":", "\"executed\":[[",
                            "\"consumer\":[",       "\"edge\":",
                            "\"rank\":",            "\"pending_tiles\":"};
  fuzz::Rng rng(seed);
  const std::string path =
      cat(testing::TempDir(), "/dpgen_ckpt_fuzz_", seed, ".json");
  int loaded = 0, rejected = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    runtime::CheckpointDoc doc;
    doc.problem = "fuzz";
    doc.params = "[7]";
    doc.dim = static_cast<int>(rng.range(1, 3));
    doc.scalar_bytes = sizeof(double);
    auto tile = [&] {
      IntVec t(static_cast<std::size_t>(doc.dim));
      for (Int& c : t) c = rng.range(-3, 8);
      return t;
    };
    for (Int n = rng.range(0, 4); n > 0; --n) doc.executed.push_back(tile());
    for (Int n = rng.range(1, 4); n > 0; --n) {
      runtime::CheckpointDoc::Edge e;
      e.consumer = tile();
      e.edge = static_cast<int>(rng.range(0, 3));
      e.payload_bytes.resize(
          static_cast<std::size_t>(rng.range(0, 3)) * sizeof(double));
      for (auto& b : e.payload_bytes)
        b = static_cast<std::uint8_t>(rng.range(0, 255));
      doc.edges.push_back(std::move(e));
    }
    for (int r = 0, ranks = static_cast<int>(rng.range(0, 2)); r < ranks;
         ++r)
      doc.ranks.push_back({r, rng.range(0, 9), rng.range(0, 9), 0});
    std::string text = runtime::encode_checkpoint_json(doc);

    switch (rng.range(0, 4)) {
      case 0:
        text.resize(static_cast<std::size_t>(
            rng.range(0, static_cast<Int>(text.size()) - 1)));
        break;
      case 1:
        for (Int n = rng.range(1, 4); n > 0; --n) {
          const auto bit = static_cast<std::size_t>(
              rng.range(0, static_cast<Int>(text.size()) * 8 - 1));
          text[bit / 8] = static_cast<char>(text[bit / 8] ^ (1 << (bit % 8)));
        }
        break;
      case 2: {
        // Prefix one edge's payload with a non-hex digit, an odd digit, a
        // stray byte (not a whole double) or one whole extra double.
        const char* kEdits[] = {"0g", "0", "0f", "000000000000f03f"};
        std::size_t at = text.find("\"payload\":\"");
        for (Int skip = rng.range(0, 3); skip > 0; --skip) {
          const std::size_t next = text.find("\"payload\":\"", at + 1);
          if (next != std::string::npos) at = next;
        }
        text.insert(at + std::strlen("\"payload\":\""),
                    kEdits[rng.range(0, std::size(kEdits) - 1)]);
        break;
      }
      case 3: {
        // The geometry: off by one, or any of the awkward numbers.
        const bool dim = rng.range(0, 1) == 0;
        const int right = dim ? doc.dim : doc.scalar_bytes;
        set_number(text, dim ? "\"dim\":" : "\"scalar_bytes\":",
                   rng.range(0, 2) == 0
                       ? cat(right + (rng.range(0, 1) == 0 ? 1 : -1))
                       : kNumbers[rng.range(0, std::size(kNumbers) - 1)]);
        break;
      }
      default:
        set_number(text, kAnchors[rng.range(0, std::size(kAnchors) - 1)],
                   kNumbers[rng.range(0, std::size(kNumbers) - 1)]);
        break;
    }
    std::ofstream(path, std::ios::trunc) << text;

    runtime::CheckpointStore<double> store;
    store.set_meta("fuzz", "[7]", doc.dim);
    runtime::CheckpointDoc back;
    try {
      back = runtime::load_checkpoint_json(path);
      store.restore_from(back);
    } catch (const Error&) {
      ++rejected;
      continue;
    }
    ++loaded;
    // A restored store holds every listed edge and no more tiles than
    // were listed (duplicates collapse).
    const runtime::CheckpointDoc restored = store.to_doc();
    EXPECT_EQ(restored.edges.size(), back.edges.size()) << text;
    EXPECT_LE(restored.executed.size(), back.executed.size()) << text;
    EXPECT_TRUE(store.replay_possible());
  }
  // Both outcomes must occur, or the mutations miss the loader's checks.
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);
}

class CheckpointLoaderFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CheckpointLoaderFuzz, MutatedDocumentsLoadOrThrow) {
  fuzz_checkpoint_loader(static_cast<std::uint64_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointLoaderFuzz, ::testing::Range(1, 5));

}  // namespace
}  // namespace dpgen::engine
