#pragma once
// Checkpoint/restart of the pending-tile computation (ROADMAP item 5).
//
// The store is a producer-side log: when a tile finishes executing, the
// driver records the tile as executed together with every outgoing edge it
// produced (consumer tile, edge index, packed payload) in one atomic step.
// That log *is* the serialized tile-table state, consolidated across
// ranks: every edge buffered in any rank's pending table came from an
// executed producer, so it is in the store; every dependency that is not
// in the store comes from a producer that has not executed and will be
// re-sent when the producer (re)runs.
//
// Restart protocol (driver.hpp + launch.hpp):
//   1. the launcher re-plans (Ehrhart load balance) over the surviving
//      ranks, so every tile has a (new) owner;
//   2. each rank seeds a *fresh* tile table: initial tiles it owns that
//      have not executed, plus — via seed_rank() — every stored edge whose
//      consumer it owns and which has not executed;
//   3. each rank's completion target is pre-credited with its executed
//      owned tiles, and the run proceeds; non-executed producers
//      re-execute and re-send their edges exactly as in a clean run.
// A tile that executed but crashed before its tile_complete() record
// simply re-executes: recording is idempotent (first record wins) and
// re-delivered edges are dropped by the tile table's duplicate guard or
// land in the next attempt's fresh tables at most once.
//
// The JSON file format (dpgen.checkpoint.v1, tools/checkpoint_schema.json)
// hex-encodes payload bytes so any trivially-copyable scalar round-trips
// exactly — %.17g would cover double, but the store is scalar-agnostic.

#include <atomic>
#include <cstring>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "runtime/tile_table.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

namespace dpgen::runtime {

namespace detail {
std::string bytes_to_hex(const std::uint8_t* data, std::size_t n);
/// Inverse of bytes_to_hex; throws dpgen::Error on malformed input.
std::vector<std::uint8_t> hex_to_bytes(const std::string& hex);
}  // namespace detail

/// Scalar-type-erased checkpoint contents — exactly what the JSON file
/// holds.  CheckpointStore<S> converts payloads to/from raw bytes.
struct CheckpointDoc {
  std::string problem;
  std::string params;
  int dim = 0;
  int scalar_bytes = 0;
  std::vector<IntVec> executed;
  struct Edge {
    IntVec consumer;
    int edge = -1;
    std::vector<std::uint8_t> payload_bytes;
  };
  std::vector<Edge> edges;
  /// Informational per-rank table occupancy at flush time (not consumed
  /// by restore; restart rebuilds tables from the edge log).
  struct RankState {
    int rank = -1;
    long long pending_tiles = 0;
    long long ready_tiles = 0;
    long long buffered_edges = 0;
  };
  std::vector<RankState> ranks;
};

/// Serializes `doc` as a dpgen.checkpoint.v1 JSON document.
std::string encode_checkpoint_json(const CheckpointDoc& doc);
/// Parses and structurally validates a checkpoint file.
CheckpointDoc load_checkpoint_json(const std::string& path);
/// Writes `text` to `path` via a temporary + rename, so a crash mid-write
/// never leaves a truncated checkpoint behind.
void write_checkpoint_file(const std::string& path, const std::string& text);

/// One outgoing edge captured at tile completion.
template <typename S>
struct CheckpointEdge {
  IntVec consumer;
  int edge = -1;
  std::vector<S> payload;
};

/// Thread-safe, cross-rank checkpoint store (one per launch; every
/// rank's workers record into it).  In a multi-process deployment each
/// rank would keep its own shard and the launcher would merge on restart;
/// in-process, one store with one mutex mirrors that without the I/O.
template <typename S>
class CheckpointStore {
 public:
  static_assert(std::is_trivially_copyable_v<S>,
                "checkpoint payloads are raw scalar bytes");

  // Defined out of line so the extern instantiation below covers them too.
  CheckpointStore();
  ~CheckpointStore();

  void set_meta(std::string problem, std::string params, int dim) {
    std::lock_guard<std::mutex> lock(mu_);
    problem_ = std::move(problem);
    params_ = std::move(params);
    dim_ = dim;
  }

  /// Enables periodic JSON flushes: every `every_tiles` completions the
  /// store rewrites `path` (empty path = in-memory only).
  void configure_flush(std::string path, long long every_tiles) {
    std::lock_guard<std::mutex> lock(mu_);
    json_path_ = std::move(path);
    every_ = every_tiles > 0 ? every_tiles : 0;
  }

  bool executed(const IntVec& tile) const {
    std::lock_guard<std::mutex> lock(mu_);
    return executed_.count(tile) != 0;
  }

  /// True once already-credited tiles can re-execute and re-send their
  /// edges — after a resume (restore_from) or a restart (enter_replay).
  /// The driver consults executed() per delivered edge only in this mode:
  /// on a clean first attempt no producer ever re-runs, so the per-edge
  /// lock + lookup would be pure overhead on the hot path.
  bool replay_possible() const {
    return replay_.load(std::memory_order_acquire);
  }
  void enter_replay() { replay_.store(true, std::memory_order_release); }

  long long completed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<long long>(executed_.size());
  }

  /// Records a finished tile and its outgoing edges atomically.
  /// Idempotent: a tile that re-executes after a crash-before-record on a
  /// previous attempt records once; later calls are dropped whole (the
  /// edge payloads are deterministic, so first-wins is also last-wins).
  void tile_complete(const IntVec& tile,
                     std::vector<CheckpointEdge<S>>&& edges);

  /// Restore seeding: delivers every stored edge whose consumer `owner`
  /// assigns to `rank` and which has not executed into `table`, and
  /// returns the number of executed tiles the rank owns (its pre-credited
  /// completion count).
  template <typename OwnerFn, typename ExpectedFn, typename Table>
  long long seed_rank(int rank, OwnerFn&& owner, ExpectedFn&& expected,
                      Table& table) const {
    std::lock_guard<std::mutex> lock(mu_);
    long long credited = 0;
    for (const auto& t : executed_)
      if (owner(t) == rank) ++credited;
    for (const auto& [consumer, edges] : edges_) {
      if (owner(consumer) != rank || executed_.count(consumer) != 0)
        continue;
      for (const auto& e : edges)
        table.deliver(consumer, expected, EdgeData<S>{e.edge, e.payload});
    }
    return credited;
  }

  /// Registers a rank's live table so periodic flushes record its
  /// occupancy; detach before the table dies (the driver uses an RAII
  /// guard around each attempt).
  void attach_table(int rank, const ShardedTileTable<S>* table) {
    std::lock_guard<std::mutex> lock(mu_);
    tables_[rank] = table;
  }
  void detach_table(int rank) {
    std::lock_guard<std::mutex> lock(mu_);
    tables_.erase(rank);
  }

  CheckpointDoc to_doc() const;

  /// Serializes to the configured path now (no-op without a path).
  /// flush_mu_ orders concurrent flushers end to end (encode *and* write),
  /// so the file on disk is always the most recently encoded snapshot —
  /// without it a slow writer could rename an older snapshot over a newer
  /// one.
  void flush() const;

  /// Loads a parsed checkpoint, replacing current contents.  Validates
  /// that it describes the same problem instance and scalar type.
  void restore_from(const CheckpointDoc& doc);

 private:
  CheckpointDoc to_doc_locked() const;

  mutable std::mutex mu_;
  mutable std::mutex flush_mu_;  ///< see flush(); always taken before mu_
  std::string problem_, params_;
  int dim_ = 0;
  std::string json_path_;
  long long every_ = 0;
  long long since_flush_ = 0;
  std::unordered_set<IntVec, IntVecHash> executed_;
  std::unordered_map<IntVec, std::vector<EdgeData<S>>, IntVecHash> edges_;
  std::unordered_map<int, const ShardedTileTable<S>*> tables_;
  std::atomic<bool> replay_{false};  ///< see replay_possible()
};

template <typename S>
CheckpointStore<S>::CheckpointStore() = default;
template <typename S>
CheckpointStore<S>::~CheckpointStore() = default;

template <typename S>
void CheckpointStore<S>::tile_complete(
    const IntVec& tile, std::vector<CheckpointEdge<S>>&& edges) {
  bool flush_now = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (executed_.count(tile) != 0) return;
    for (auto& e : edges)
      edges_[e.consumer].push_back(EdgeData<S>{e.edge, std::move(e.payload)});
    executed_.insert(tile);
    if (!json_path_.empty() && every_ > 0 && ++since_flush_ >= every_) {
      since_flush_ = 0;
      flush_now = true;
    }
  }
  if (flush_now) flush();
}

template <typename S>
CheckpointDoc CheckpointStore<S>::to_doc() const {
  std::lock_guard<std::mutex> lock(mu_);
  return to_doc_locked();
}

template <typename S>
void CheckpointStore<S>::flush() const {
  std::lock_guard<std::mutex> flush_lock(flush_mu_);
  std::string path, text;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (json_path_.empty()) return;
    path = json_path_;
    text = encode_checkpoint_json(to_doc_locked());
  }
  write_checkpoint_file(path, text);
}

template <typename S>
void CheckpointStore<S>::restore_from(const CheckpointDoc& doc) {
  std::lock_guard<std::mutex> lock(mu_);
  DPGEN_CHECK(doc.scalar_bytes == static_cast<int>(sizeof(S)),
              cat("checkpoint scalar width ", doc.scalar_bytes,
                  " does not match runtime scalar of ",
                  static_cast<int>(sizeof(S)), " bytes"));
  DPGEN_CHECK(problem_.empty() || doc.problem == problem_,
              cat("checkpoint is for problem '", doc.problem,
                  "', not '", problem_, "'"));
  DPGEN_CHECK(params_.empty() || doc.params == params_,
              cat("checkpoint params '", doc.params,
                  "' do not match run params '", params_, "'"));
  DPGEN_CHECK(dim_ == 0 || doc.dim == dim_, "checkpoint dim mismatch");
  replay_.store(true, std::memory_order_release);
  executed_.clear();
  edges_.clear();
  for (const auto& t : doc.executed) executed_.insert(t);
  for (const auto& e : doc.edges) {
    DPGEN_CHECK(e.payload_bytes.size() % sizeof(S) == 0,
                "checkpoint edge payload is not a whole number of scalars");
    std::vector<S> payload(e.payload_bytes.size() / sizeof(S));
    if (!payload.empty())
      std::memcpy(payload.data(), e.payload_bytes.data(),
                  e.payload_bytes.size());
    edges_[e.consumer].push_back(EdgeData<S>{e.edge, std::move(payload)});
  }
}

template <typename S>
CheckpointDoc CheckpointStore<S>::to_doc_locked() const {
  CheckpointDoc doc;
  doc.problem = problem_;
  doc.params = params_;
  doc.dim = dim_;
  doc.scalar_bytes = static_cast<int>(sizeof(S));
  doc.executed.assign(executed_.begin(), executed_.end());
  // Deterministic file contents: hash-set order varies run to run.
  std::sort(doc.executed.begin(), doc.executed.end());
  for (const auto& [consumer, edges] : edges_) {
    for (const auto& e : edges) {
      CheckpointDoc::Edge out;
      out.consumer = consumer;
      out.edge = e.edge;
      out.payload_bytes.resize(e.payload.size() * sizeof(S));
      if (!e.payload.empty())
        std::memcpy(out.payload_bytes.data(), e.payload.data(),
                    out.payload_bytes.size());
      doc.edges.push_back(std::move(out));
    }
  }
  std::sort(doc.edges.begin(), doc.edges.end(),
            [](const CheckpointDoc::Edge& a, const CheckpointDoc::Edge& b) {
              if (a.consumer != b.consumer) return a.consumer < b.consumer;
              return a.edge < b.edge;
            });
  for (const auto& [rank, table] : tables_) {
    const TableSnapshot snap = table->snapshot();
    doc.ranks.push_back(CheckpointDoc::RankState{
        rank, snap.pending_tiles, snap.ready_tiles, snap.buffered_edges});
  }
  return doc;
}

// Compiled once in dpgen_runtime (driver.cpp).
extern template class CheckpointStore<double>;

}  // namespace dpgen::runtime
