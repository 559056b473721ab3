#pragma once

/// \file snapshot.hpp
/// Versioned, integrity-checked serialization for crash-durable runs.
///
/// A snapshot is a little-endian byte stream framed as
///
///   offset  size  field
///        0     4  magic "SCPS"
///        4     4  format version (kSnapshotVersion)
///        8     8  payload length in bytes
///       16     4  CRC-32 (IEEE, reflected) of the payload
///       20     n  payload: a sequence of type-tagged fields
///
/// Every multi-byte integer — in the frame header and in the payload — is
/// written least-significant byte first regardless of host endianness, so a
/// snapshot taken on one machine restores on any other. Each payload field
/// carries a one-byte type tag checked on read, so a reader that drifts out
/// of sync with the writer fails with a typed Status instead of silently
/// misinterpreting bytes.
///
/// Failure taxonomy (all expected runtime outcomes, never exceptions):
///   NotFound     the snapshot file does not exist / is unreadable
///   DataLoss     truncation, a flipped bit (CRC mismatch), a bad magic,
///                a length that overruns the file, or a tag mismatch
///   VersionSkew  the frame is intact but written by an incompatible
///                format version
///
/// Version policy: kSnapshotVersion bumps on any payload layout change; a
/// reader accepts exactly its own version (resume replays the run from the
/// start anyway, so cross-version migration would buy nothing and cost a
/// compatibility matrix).

#include <cstdint>
#include <string>
#include <vector>

#include "sccpipe/support/status.hpp"

namespace sccpipe::snapshot {

inline constexpr std::uint32_t kMagic = 0x53504353u;  // "SCPS" little-endian
inline constexpr std::uint32_t kSnapshotVersion = 1;

/// Payload field type tags (one byte on the wire, ahead of each value).
enum class Tag : std::uint8_t {
  U32 = 1,
  U64 = 2,
  I64 = 3,
  F64 = 4,
  Bytes = 5,  ///< u64 length + raw bytes
  Str = 6,    ///< u64 length + UTF-8 bytes
};

/// Append-only builder for a snapshot payload. finish() frames it with the
/// magic/version/length/CRC header.
class Writer {
 public:
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void bytes(const void* data, std::size_t size);
  void str(const std::string& s);

  const std::vector<std::uint8_t>& payload() const { return payload_; }

  /// The framed snapshot: header + payload, ready to write to disk.
  std::vector<std::uint8_t> finish() const;

 private:
  void tag(Tag t);
  void raw_u32(std::uint32_t v);
  void raw_u64(std::uint64_t v);

  std::vector<std::uint8_t> payload_;
};

/// Sequential reader over a framed snapshot. open() validates the frame
/// (magic, version, length, CRC) before any field is parsed, so a single
/// flipped bit anywhere in the stream is caught up front.
class Reader {
 public:
  /// Validate \p data's frame and position the cursor at the first payload
  /// field. Typed failure: DataLoss / VersionSkew (see file comment).
  Status open(const std::vector<std::uint8_t>& data);

  Status u32(std::uint32_t* out);
  Status u64(std::uint64_t* out);
  Status i64(std::int64_t* out);
  Status f64(double* out);
  Status bytes(std::vector<std::uint8_t>* out);
  Status str(std::string* out);

  bool at_end() const { return pos_ >= payload_.size(); }

 private:
  Status expect_tag(Tag want);
  Status raw_u64(std::uint64_t* out);
  Status need(std::size_t n) const;

  std::vector<std::uint8_t> payload_;
  std::size_t pos_ = 0;
};

/// Write \p framed (a Writer::finish() result) to \p path atomically:
/// the bytes land in "<path>.tmp" first and rename() publishes them, so a
/// crash mid-write leaves the previous snapshot intact. Typed
/// InvalidArgument on I/O failure (unwritable directory, disk full).
Status write_file_atomic(const std::string& path,
                         const std::vector<std::uint8_t>& framed);

/// Read a whole snapshot file. NotFound when the file does not exist or
/// cannot be opened; the caller validates the frame via Reader::open().
Status read_file(const std::string& path, std::vector<std::uint8_t>* out);

/// Validate the CLI checkpoint flag combination before a run starts:
///   * every_frames <= 0 while a checkpoint path is set -> InvalidArgument
///   * checkpointing or resume requested without a path  -> InvalidArgument
///   * the checkpoint file's directory is not writable   -> InvalidArgument
///   * resume without an existing readable file          -> NotFound
/// \p every_set marks an explicitly passed --checkpoint-every (the default
/// 0 with no path is simply "checkpointing off" and valid).
Status validate_checkpoint_args(int every_frames, bool every_set,
                                const std::string& path, bool resume);

}  // namespace sccpipe::snapshot
