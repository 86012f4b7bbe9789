#pragma once
// End-of-run record merge: every rank ships its spans or message records
// to rank 0 through the comm layer's collectives, mirroring what real MPI
// ranks would do (MPI_Allreduce for the size, MPI_Gather for the payload).
//
// Header-only and duck-typed on the Comm interface so obs does not link
// against minimpi (minimpi itself records spans, which would otherwise be
// a dependency cycle).

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "support/error.hpp"

namespace dpgen::obs {

/// Serializes records into the fixed-size wire format [count, T...].
template <typename T>
std::vector<std::uint8_t> serialize_records(const std::vector<T>& records) {
  static_assert(std::is_trivially_copyable_v<T>, "records are wire format");
  std::vector<std::uint8_t> out(sizeof(std::uint64_t) +
                                records.size() * sizeof(T));
  const std::uint64_t count = records.size();
  std::memcpy(out.data(), &count, sizeof(count));
  if (!records.empty())
    std::memcpy(out.data() + sizeof(count), records.data(),
                records.size() * sizeof(T));
  return out;
}

/// Inverse of serialize_records; tolerates trailing padding bytes.  The
/// count is bounded by the bytes present before anything is sized from
/// it, so a hostile count cannot wrap the length check.
template <typename T>
std::vector<T> deserialize_records(const std::uint8_t* data,
                                   std::size_t bytes) {
  DPGEN_CHECK(bytes >= sizeof(std::uint64_t), "malformed record buffer");
  std::uint64_t count = 0;
  std::memcpy(&count, data, sizeof(count));
  DPGEN_CHECK(count <= (bytes - sizeof(count)) / sizeof(T),
              "record buffer length mismatch");
  std::vector<T> records(count);
  if (count)
    std::memcpy(records.data(), data + sizeof(count), count * sizeof(T));
  return records;
}

/// Gathers every rank's `mine` to rank 0 and returns the concatenation
/// there (empty on the other ranks).  Collective: every rank of the
/// communicator must call it.  CommT needs allreduce_max(double) and
/// gather(root, data, bytes, out) — the shape of both minimpi::Comm and
/// an MPI wrapper.
template <typename T, typename CommT>
std::vector<T> gather_records(CommT& comm, const std::vector<T>& mine) {
  std::vector<std::uint8_t> buf = serialize_records(mine);
  // Ranks record different amounts; gather needs one fixed size, so pad
  // everyone to the largest buffer (the count prefix marks the real end).
  const auto max_bytes = static_cast<std::size_t>(
      comm.allreduce_max(static_cast<double>(buf.size())));
  buf.resize(max_bytes, 0);
  std::vector<std::uint8_t> all;
  comm.gather(0, buf.data(), buf.size(), &all);
  std::vector<T> out;
  for (std::size_t off = 0; off < all.size(); off += max_bytes) {
    std::vector<T> part = deserialize_records<T>(all.data() + off, max_bytes);
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

}  // namespace dpgen::obs
