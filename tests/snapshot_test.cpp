// Unit and property tests for the versioned snapshot frame
// (support/snapshot) and the run-level snapshot record (core/run_snapshot):
// round trips, the on-disk little-endian golden layout, and — the part that
// earns the "crash-durable" claim — typed rejection of every corrupted,
// truncated, or version-skewed input a crash or a stray write could leave
// behind.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

#include "sccpipe/core/run_snapshot.hpp"
#include "sccpipe/support/snapshot.hpp"

namespace sccpipe {
namespace {

using snapshot::Reader;
using snapshot::Writer;

std::vector<std::uint8_t> sample_frame() {
  Writer w;
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.f64(2.5);
  const std::uint8_t blob[3] = {1, 2, 3};
  w.bytes(blob, sizeof blob);
  w.str("scps");
  return w.finish();
}

// ------------------------------------------------------------- round trips

TEST(Snapshot, RoundTripAllFieldTypes) {
  const std::vector<std::uint8_t> framed = sample_frame();
  Reader r;
  ASSERT_TRUE(r.open(framed).ok());
  std::uint32_t a = 0;
  std::uint64_t b = 0;
  std::int64_t c = 0;
  double d = 0.0;
  std::vector<std::uint8_t> e;
  std::string f;
  ASSERT_TRUE(r.u32(&a).ok());
  ASSERT_TRUE(r.u64(&b).ok());
  ASSERT_TRUE(r.i64(&c).ok());
  ASSERT_TRUE(r.f64(&d).ok());
  ASSERT_TRUE(r.bytes(&e).ok());
  ASSERT_TRUE(r.str(&f).ok());
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(a, 0xdeadbeefu);
  EXPECT_EQ(b, 0x0123456789abcdefull);
  EXPECT_EQ(c, -42);
  EXPECT_DOUBLE_EQ(d, 2.5);
  EXPECT_EQ(e, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(f, "scps");
}

TEST(Snapshot, EmptyPayloadRoundTrips) {
  Writer w;
  const std::vector<std::uint8_t> framed = w.finish();
  EXPECT_EQ(framed.size(), 20u);  // header only
  Reader r;
  ASSERT_TRUE(r.open(framed).ok());
  EXPECT_TRUE(r.at_end());
}

// The frame layout is a contract: magic, version, and length land at fixed
// offsets, least-significant byte first, on every host.
TEST(Snapshot, GoldenLittleEndianLayout) {
  Writer w;
  w.u32(0x11223344u);
  const std::vector<std::uint8_t> framed = w.finish();
  ASSERT_EQ(framed.size(), 20u + 5u);
  // Magic "SCPS" = 0x53504353 little-endian: 'S' 'C' 'P' 'S'.
  EXPECT_EQ(framed[0], 'S');
  EXPECT_EQ(framed[1], 'C');
  EXPECT_EQ(framed[2], 'P');
  EXPECT_EQ(framed[3], 'S');
  // Version 1.
  EXPECT_EQ(framed[4], 1);
  EXPECT_EQ(framed[5], 0);
  EXPECT_EQ(framed[6], 0);
  EXPECT_EQ(framed[7], 0);
  // Payload length 5 (tag + 4 bytes).
  EXPECT_EQ(framed[8], 5);
  for (int i = 9; i < 16; ++i) EXPECT_EQ(framed[i], 0) << "length byte " << i;
  // Payload: tag U32 then 0x11223344 LSB-first.
  EXPECT_EQ(framed[20], static_cast<std::uint8_t>(snapshot::Tag::U32));
  EXPECT_EQ(framed[21], 0x44);
  EXPECT_EQ(framed[22], 0x33);
  EXPECT_EQ(framed[23], 0x22);
  EXPECT_EQ(framed[24], 0x11);
}

// ------------------------------------------------------ corruption rejection

// Property test: flipping ANY single bit in the frame must yield a typed
// failure — either at open() (header/CRC damage) or as a tag/bounds error
// while reading fields. Silent acceptance of a damaged snapshot is the one
// unacceptable outcome, and this sweeps the whole input space of single-bit
// damage.
TEST(Snapshot, EverySingleBitFlipIsRejected) {
  const std::vector<std::uint8_t> good = sample_frame();
  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> bad = good;
      bad[byte] = static_cast<std::uint8_t>(bad[byte] ^ (1u << bit));
      Reader r;
      const Status st = r.open(bad);
      if (!st.ok()) {
        EXPECT_TRUE(st.code() == StatusCode::DataLoss ||
                    st.code() == StatusCode::VersionSkew)
            << "byte " << byte << " bit " << bit << ": " << st.to_string();
        continue;
      }
      // open() passed — only possible if the flip hit bytes the CRC does
      // not cover (the header's CRC field itself is covered via the check;
      // payload flips always change the CRC). In fact every flip must fail:
      ADD_FAILURE() << "bit flip at byte " << byte << " bit " << bit
                    << " was not detected";
    }
  }
}

TEST(Snapshot, EveryTruncationIsRejected) {
  const std::vector<std::uint8_t> good = sample_frame();
  for (std::size_t n = 0; n < good.size(); ++n) {
    std::vector<std::uint8_t> bad(good.begin(), good.begin() + n);
    Reader r;
    const Status st = r.open(bad);
    EXPECT_FALSE(st.ok()) << "truncation to " << n << " bytes accepted";
    EXPECT_EQ(st.code(), StatusCode::DataLoss) << "truncation to " << n;
  }
}

TEST(Snapshot, TrailingGarbageIsRejected) {
  std::vector<std::uint8_t> bad = sample_frame();
  bad.push_back(0x00);
  Reader r;
  EXPECT_EQ(r.open(bad).code(), StatusCode::DataLoss);
}

TEST(Snapshot, VersionSkewIsTypedDistinctly) {
  std::vector<std::uint8_t> bad = sample_frame();
  bad[4] = static_cast<std::uint8_t>(snapshot::kSnapshotVersion + 1);
  Reader r;
  const Status st = r.open(bad);
  EXPECT_EQ(st.code(), StatusCode::VersionSkew) << st.to_string();
}

TEST(Snapshot, TagMismatchIsDataLoss) {
  Writer w;
  w.u32(7);
  const std::vector<std::uint8_t> framed = w.finish();
  Reader r;
  ASSERT_TRUE(r.open(framed).ok());
  std::uint64_t v = 0;
  EXPECT_EQ(r.u64(&v).code(), StatusCode::DataLoss);  // wrote u32, read u64
}

TEST(Snapshot, ReadPastEndIsDataLoss) {
  Writer w;
  w.u32(7);
  const std::vector<std::uint8_t> framed = w.finish();
  Reader r;
  ASSERT_TRUE(r.open(framed).ok());
  std::uint32_t v = 0;
  ASSERT_TRUE(r.u32(&v).ok());
  EXPECT_EQ(r.u32(&v).code(), StatusCode::DataLoss);
}

// --------------------------------------------------------------- file I/O

TEST(Snapshot, AtomicWriteThenReadBack) {
  const std::string path = "/tmp/sccpipe_snapshot_test.snap";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  const std::vector<std::uint8_t> framed = sample_frame();
  ASSERT_TRUE(snapshot::write_file_atomic(path, framed).ok());
  // The temporary staging file must not survive the rename.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
  std::vector<std::uint8_t> back;
  ASSERT_TRUE(snapshot::read_file(path, &back).ok());
  EXPECT_EQ(back, framed);
  std::remove(path.c_str());
}

TEST(Snapshot, ReadMissingFileIsNotFound) {
  std::vector<std::uint8_t> out;
  const Status st =
      snapshot::read_file("/tmp/sccpipe_snapshot_test_missing.snap", &out);
  EXPECT_EQ(st.code(), StatusCode::NotFound);
}

TEST(Snapshot, WriteToMissingDirectoryIsInvalidArgument) {
  const Status st = snapshot::write_file_atomic(
      "/tmp/sccpipe_no_such_dir_zzz/x.snap", sample_frame());
  EXPECT_EQ(st.code(), StatusCode::InvalidArgument);
}

// --------------------------------------------------- flag validation (CLI)

TEST(CheckpointArgs, DefaultsAreValid) {
  EXPECT_TRUE(snapshot::validate_checkpoint_args(0, false, "", false).ok());
}

TEST(CheckpointArgs, ExplicitNonPositiveEveryRejected) {
  EXPECT_EQ(snapshot::validate_checkpoint_args(0, true, "x", false).code(),
            StatusCode::InvalidArgument);
  EXPECT_EQ(snapshot::validate_checkpoint_args(-5, true, "x", false).code(),
            StatusCode::InvalidArgument);
}

TEST(CheckpointArgs, EveryOrResumeWithoutPathRejected) {
  EXPECT_EQ(snapshot::validate_checkpoint_args(10, true, "", false).code(),
            StatusCode::InvalidArgument);
  EXPECT_EQ(snapshot::validate_checkpoint_args(0, false, "", true).code(),
            StatusCode::InvalidArgument);
}

TEST(CheckpointArgs, PathWithoutEveryOrResumeRejected) {
  EXPECT_EQ(
      snapshot::validate_checkpoint_args(0, false, "/tmp/x.snap", false).code(),
      StatusCode::InvalidArgument);
}

TEST(CheckpointArgs, UnwritableDirectoryRejected) {
  EXPECT_EQ(snapshot::validate_checkpoint_args(
                10, true, "/tmp/sccpipe_no_such_dir_zzz/x.snap", false)
                .code(),
            StatusCode::InvalidArgument);
}

TEST(CheckpointArgs, ResumeFromMissingFileIsNotFound) {
  EXPECT_EQ(snapshot::validate_checkpoint_args(
                0, false, "/tmp/sccpipe_snapshot_test_missing.snap", true)
                .code(),
            StatusCode::NotFound);
}

TEST(CheckpointArgs, ResumeFromExistingFileAccepted) {
  const std::string path = "/tmp/sccpipe_snapshot_args_test.snap";
  ASSERT_TRUE(snapshot::write_file_atomic(path, sample_frame()).ok());
  EXPECT_TRUE(snapshot::validate_checkpoint_args(0, false, path, true).ok());
  EXPECT_TRUE(snapshot::validate_checkpoint_args(10, true, path, true).ok());
  std::remove(path.c_str());
}

// ------------------------------------------------------------ run snapshot

TEST(RunSnapshot, SerializeParseRoundTrip) {
  RunSnapshot snap;
  snap.config_fingerprint = 0xfeedfacecafebeefull;
  snap.frames_delivered = 123;
  snap.sim_now_ns = 456789;
  snap.crashes_consumed = 2;
  snap.state = {9, 8, 7, 6};
  RunSnapshot back;
  ASSERT_TRUE(parse_run_snapshot(serialize_run_snapshot(snap), &back).ok());
  EXPECT_EQ(back.config_fingerprint, snap.config_fingerprint);
  EXPECT_EQ(back.frames_delivered, snap.frames_delivered);
  EXPECT_EQ(back.sim_now_ns, snap.sim_now_ns);
  EXPECT_EQ(back.crashes_consumed, snap.crashes_consumed);
  EXPECT_EQ(back.state, snap.state);
}

TEST(RunSnapshot, TrailingFieldIsRejected) {
  snapshot::Writer w;
  w.u64(1);
  w.u64(2);
  w.i64(3);
  w.u32(4);
  w.bytes(nullptr, 0);
  w.u32(99);  // one field too many
  RunSnapshot out;
  EXPECT_EQ(parse_run_snapshot(w.finish(), &out).code(), StatusCode::DataLoss);
}

TEST(RunSnapshot, FingerprintSeparatesTrajectoryShapingConfigs) {
  RunConfig a;
  RunConfig b = a;
  EXPECT_EQ(run_config_fingerprint(a), run_config_fingerprint(b));
  b.seed = a.seed + 1;
  EXPECT_NE(run_config_fingerprint(a), run_config_fingerprint(b));
  b = a;
  b.pipelines = a.pipelines + 1;
  EXPECT_NE(run_config_fingerprint(a), run_config_fingerprint(b));
  b = a;
  b.fault.host_drop_rate = 0.25;
  EXPECT_NE(run_config_fingerprint(a), run_config_fingerprint(b));
  b = a;
  b.recovery.detection_deadline = b.recovery.detection_deadline + SimTime::ms(1);
  EXPECT_NE(run_config_fingerprint(a), run_config_fingerprint(b));
}

// Crash plan and checkpoint placement must NOT change the fingerprint: an
// attempt that disarmed a crash still matches its own earlier snapshot.
TEST(RunSnapshot, FingerprintIgnoresExecutionOnlyConfig) {
  RunConfig a;
  RunConfig b = a;
  b.fault.crashes.push_back(SimTime::ms(500));
  EXPECT_EQ(run_config_fingerprint(a), run_config_fingerprint(b));
  b = a;
  b.checkpoint.every_frames = 20;
  b.checkpoint.file = "/tmp/x.snap";
  EXPECT_EQ(run_config_fingerprint(a), run_config_fingerprint(b));
}

}  // namespace
}  // namespace sccpipe
