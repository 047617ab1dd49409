// Tests for the fault-tolerance layer: exact byte codecs, checkpoint
// save/load (including version and shard-plan rejection and corrupt-record
// dropping), fault-spec parsing, the FtSession retry/watchdog/partial
// orchestration, and the tentpole contract - interrupt-at-shard-k + resume
// yields JSON byte-identical to an uninterrupted run, against the committed
// golden fixtures, for several k and differing worker counts.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "attack/evicttime.h"
#include "attack/flushreload.h"
#include "attack/primeprobe.h"
#include "attack/profile.h"
#include "runner/checkpoint.h"
#include "runner/codecs.h"
#include "runner/experiment.h"
#include "runner/fault.h"
#include "runner/thread_pool.h"

namespace tsc::runner {
namespace {

#ifndef TSC_SOURCE_DIR
#error "TSC_SOURCE_DIR must point at the repository root"
#endif

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "tsc_ckpt_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// --- byte codecs -------------------------------------------------------------

TEST(ByteCodecTest, VarintRoundTripsEdgeValues) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16'383,
                                  16'384,
                                  0xFFFF'FFFFULL,
                                  0xFFFF'FFFF'FFFF'FFFFULL};
  ByteWriter writer;
  for (const std::uint64_t v : values) writer.put_varint(v);
  ByteReader reader(writer.bytes());
  for (const std::uint64_t v : values) EXPECT_EQ(reader.varint(), v);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(ByteCodecTest, DoublesRoundTripBitExactly) {
  const double values[] = {0.0, -0.0, 1.0 / 3.0, 1e-300, 5e-324, 1e308};
  ByteWriter writer;
  for (const double v : values) writer.put_f64(v);
  ByteReader reader(writer.bytes());
  for (const double v : values) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reader.f64()),
              std::bit_cast<std::uint64_t>(v));
  }
}

TEST(ByteCodecTest, ReaderThrowsOnTruncation) {
  ByteWriter writer;
  writer.put_string("hello");
  std::vector<std::uint8_t> bytes = std::move(writer).take();
  bytes.pop_back();
  ByteReader reader(bytes);
  EXPECT_THROW((void)reader.string(), CheckpointError);
}

TEST(ByteCodecTest, TimingProfileRoundTripIsExact) {
  attack::TimingProfile profile;
  crypto::Block pt{};
  for (int i = 0; i < 200; ++i) {
    for (std::size_t b = 0; b < pt.size(); ++b) {
      pt[b] = static_cast<std::uint8_t>(i * 7 + b * 13);
    }
    profile.add(pt, static_cast<double>(900 + i % 37));
  }
  ByteWriter writer;
  ProfileCodec::put(writer, profile);
  ByteReader reader(writer.bytes());
  const attack::TimingProfile copy = ProfileCodec::get_timing(reader);
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(copy.samples(), profile.samples());
  EXPECT_EQ(copy.global_mean(), profile.global_mean());
  for (int pos = 0; pos < 16; ++pos) {
    for (int v = 0; v < 256; ++v) {
      EXPECT_EQ(copy.cell_count(pos, v), profile.cell_count(pos, v));
      EXPECT_EQ(copy.cell_mean(pos, v), profile.cell_mean(pos, v));
    }
  }
}

TEST(ByteCodecTest, PrimeProbeOutcomeRoundTripIsExact) {
  attack::PrimeProbeOutcome outcome(/*sets=*/8, /*line_classes=*/4);
  crypto::Block pt{};
  std::vector<std::uint32_t> misses(8);
  for (int i = 0; i < 64; ++i) {
    pt[0] = static_cast<std::uint8_t>(i);
    for (std::size_t s = 0; s < misses.size(); ++s) {
      misses[s] = static_cast<std::uint32_t>((i + s) % 3);
    }
    outcome.profile.add(pt, misses);
    outcome.channel.add(i % 4, i % 5);
  }
  ByteWriter writer;
  put_pp_outcome(writer, outcome);
  ByteReader reader(writer.bytes());
  const attack::PrimeProbeOutcome copy = get_pp_outcome(reader);
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(copy.profile.samples(), outcome.profile.samples());
  EXPECT_EQ(copy.profile.sets(), outcome.profile.sets());
  for (int v = 0; v < 256; ++v) {
    for (std::uint32_t s = 0; s < 8; ++s) {
      EXPECT_EQ(copy.profile.cell_mean(0, v, s),
                outcome.profile.cell_mean(0, v, s));
    }
  }
  ASSERT_EQ(copy.channel.x_classes(), outcome.channel.x_classes());
  ASSERT_EQ(copy.channel.y_bins(), outcome.channel.y_bins());
  for (std::size_t x = 0; x < 4; ++x) {
    for (std::size_t y = 0; y < 5; ++y) {
      EXPECT_EQ(copy.channel.cell(x, y), outcome.channel.cell(x, y));
    }
  }
}

TEST(ByteCodecTest, EvictTimeOutcomeRoundTripIsExact) {
  attack::EvictTimeOutcome outcome(/*sets=*/4, /*line_classes=*/4);
  crypto::Block pt{};
  for (int i = 0; i < 64; ++i) {
    pt[1] = static_cast<std::uint8_t>(i * 3);
    outcome.profile.add(pt, static_cast<std::uint32_t>(i % 4),
                        static_cast<Cycles>(1000 + i));
    outcome.channel.add(i % 4, i % 2);
  }
  ByteWriter writer;
  put_et_outcome(writer, outcome);
  ByteReader reader(writer.bytes());
  const attack::EvictTimeOutcome copy = get_et_outcome(reader);
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(copy.profile.samples(), outcome.profile.samples());
  for (int v = 0; v < 256; ++v) {
    for (std::uint32_t s = 0; s < 4; ++s) {
      EXPECT_EQ(copy.profile.cell_mean(1, v, s),
                outcome.profile.cell_mean(1, v, s));
      EXPECT_EQ(copy.profile.cell_count(1, v, s),
                outcome.profile.cell_count(1, v, s));
    }
  }
}

TEST(ByteCodecTest, FlushOutcomeRoundTripIsExact) {
  attack::FlushOutcome outcome(/*lines=*/16, /*line_classes=*/4);
  crypto::Block pt{};
  std::vector<std::uint8_t> touched(16);
  for (int i = 0; i < 96; ++i) {
    for (std::size_t b = 0; b < pt.size(); ++b) {
      pt[b] = static_cast<std::uint8_t>(i * 11 + b * 5);
    }
    for (std::size_t m = 0; m < touched.size(); ++m) {
      touched[m] = static_cast<std::uint8_t>((i + m) % 3 == 0);
    }
    outcome.profile.add(pt, touched);
    outcome.channel.add(i % 4, i % 5);
  }
  ByteWriter writer;
  put_flush_outcome(writer, outcome);
  ByteReader reader(writer.bytes());
  const attack::FlushOutcome copy = get_flush_outcome(reader);
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(copy.profile.samples(), outcome.profile.samples());
  EXPECT_EQ(copy.profile.lines(), outcome.profile.lines());
  for (int pos = 0; pos < attack::FlushProfile::kPositions; ++pos) {
    for (int v = 0; v < attack::FlushProfile::kValues; ++v) {
      ASSERT_EQ(copy.profile.cell_count(pos, v),
                outcome.profile.cell_count(pos, v));
      for (std::uint32_t m = 0; m < 16; ++m) {
        ASSERT_EQ(copy.profile.cell_mean(pos, v, m),
                  outcome.profile.cell_mean(pos, v, m));
      }
    }
  }
  ASSERT_EQ(copy.channel.x_classes(), outcome.channel.x_classes());
  ASSERT_EQ(copy.channel.y_bins(), outcome.channel.y_bins());
  for (std::size_t x = 0; x < copy.channel.x_classes(); ++x) {
    for (std::size_t y = 0; y < copy.channel.y_bins(); ++y) {
      EXPECT_EQ(copy.channel.cell(x, y), outcome.channel.cell(x, y));
    }
  }
}

// --- fault-spec parsing ------------------------------------------------------

TEST(FaultSpecTest, ParsesFullSpec) {
  std::string error;
  const auto spec = parse_fault_spec("shard=5,kind=hang,times=2", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->shard, 5u);
  EXPECT_EQ(spec->kind, FaultKind::kHang);
  EXPECT_EQ(spec->times, 2);
}

TEST(FaultSpecTest, RejectsMalformedSpecs) {
  std::string error;
  EXPECT_FALSE(parse_fault_spec("", &error).has_value());
  EXPECT_FALSE(parse_fault_spec("shard=1", &error).has_value());
  EXPECT_FALSE(parse_fault_spec("kind=throw", &error).has_value());
  EXPECT_FALSE(parse_fault_spec("shard=1,kind=explode", &error).has_value());
  EXPECT_FALSE(parse_fault_spec("shard=x,kind=throw", &error).has_value());
  EXPECT_FALSE(parse_fault_spec("shard=1,kind=throw,times=0", &error)
                   .has_value());
  EXPECT_FALSE(parse_fault_spec("bogus", &error).has_value());
}

// --- checkpoint file ---------------------------------------------------------

TEST(CheckpointTest, SaveLoadRoundTrip) {
  const std::string path = temp_path("roundtrip.bin");
  Checkpoint ckpt("fig5", "fp-1");
  ckpt.put("stage-a", 4, 0, {1, 2, 3});
  ckpt.put("stage-a", 4, 2, {4, 5});
  ckpt.put("stage-b", 2, 1, {});
  ckpt.save(path);

  const Checkpoint loaded = Checkpoint::load(path);
  EXPECT_EQ(loaded.experiment(), "fig5");
  EXPECT_EQ(loaded.fingerprint(), "fp-1");
  EXPECT_EQ(loaded.record_count(), 3u);
  ASSERT_NE(loaded.find("stage-a", 4, 0), nullptr);
  EXPECT_EQ(*loaded.find("stage-a", 4, 0), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(loaded.find("stage-a", 4, 1), nullptr);
  ASSERT_NE(loaded.find("stage-b", 2, 1), nullptr);
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsShardPlanMismatch) {
  Checkpoint ckpt("fig5", "fp");
  ckpt.put("stage", 4, 0, {1});
  // Same stage, different task count: the shard plan changed and the
  // records cannot mean what they say.
  EXPECT_THROW((void)ckpt.find("stage", 8, 0), CheckpointError);
  EXPECT_THROW(ckpt.put("stage", 8, 1, {2}), CheckpointError);
}

TEST(CheckpointTest, RejectsVersionMismatch) {
  const std::string path = temp_path("version.bin");
  Checkpoint ckpt("fig5", "fp");
  ckpt.put("stage", 1, 0, {9});
  ckpt.save(path);

  // The format version is a fixed little-endian u32 right after the 6-byte
  // magic; bump it and the load must refuse outright.
  std::string raw = read_file(path);
  ASSERT_GT(raw.size(), 10u);
  raw[6] = static_cast<char>(raw[6] + 1);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << raw;
  try {
    (void)Checkpoint::load(path);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsNonCheckpointFile) {
  const std::string path = temp_path("garbage.bin");
  std::ofstream(path, std::ios::binary) << "not a checkpoint at all";
  EXPECT_THROW((void)Checkpoint::load(path), CheckpointError);
  std::remove(path.c_str());
}

TEST(CheckpointTest, DropsChecksumCorruptRecordsKeepsRest) {
  const std::string path = temp_path("corrupt.bin");
  Checkpoint ckpt("fig5", "fp");
  ckpt.put("stage", 2, 0, {10, 20, 30, 40});
  ckpt.put("stage", 2, 1, {50, 60, 70, 80});
  ckpt.save(path);

  // Flip one payload byte on disk: that record's checksum no longer
  // matches, so load drops it (the shard re-runs) but keeps the other.
  std::string raw = read_file(path);
  const std::size_t at = raw.find(std::string("\x0a\x14\x1e\x28", 4));
  ASSERT_NE(at, std::string::npos);
  raw[at + 1] = static_cast<char>(0x7F);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << raw;

  const Checkpoint loaded = Checkpoint::load(path);
  EXPECT_EQ(loaded.record_count(), 1u);
  EXPECT_EQ(loaded.find("stage", 2, 0), nullptr);
  EXPECT_NE(loaded.find("stage", 2, 1), nullptr);
  std::remove(path.c_str());
}

TEST(CheckpointTest, AtomicWriteReplacesExistingFile) {
  const std::string path = temp_path("atomic.txt");
  atomic_write_file(path, "first");
  EXPECT_EQ(read_file(path), "first");
  atomic_write_file(path, "second");
  EXPECT_EQ(read_file(path), "second");
  std::remove(path.c_str());
}

TEST(CheckpointTest, AtomicWriteFailsLoudlyAndLeavesNoTempFile) {
  // Durability is allowed to fail, but never silently: an unwritable
  // destination must throw with errno detail, leave the old file alone,
  // and not litter a .tmp alongside it.
  const std::string path =
      temp_path("no_such_dir") + "/nested/out.json";
  try {
    atomic_write_file(path, "payload");
    FAIL() << "atomic_write_file must throw for a missing directory";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open temp file"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(read_file(path).empty());
  EXPECT_TRUE(read_file(path + ".tmp").empty());
}

TEST(CheckpointTest, FlippedTaskIndexDropsRecordInsteadOfMovingIt) {
  // The checksum covers the whole record, not just the payload: a bit flip
  // in the task index must cost that record, never load its payload under
  // another shard's index.
  const std::string path = temp_path("task_flip.bin");
  Checkpoint ckpt("fig5", "fp");
  ckpt.put("stage", 4, 1, {0xA1, 0xB2, 0xC3, 0xD4});
  ckpt.put("stage", 4, 3, {0x11, 0x22});
  ckpt.save(path);

  std::string raw = read_file(path);
  const std::size_t at = raw.find(std::string("\xA1\xB2\xC3\xD4", 4));
  ASSERT_NE(at, std::string::npos);
  ASSERT_GE(at, 2u);
  // The payload is preceded by its task varint (1) and size varint (4).
  ASSERT_EQ(raw[at - 1], 4);
  ASSERT_EQ(raw[at - 2], 1);
  raw[at - 2] = 2;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << raw;

  const Checkpoint loaded = Checkpoint::load(path);
  EXPECT_EQ(loaded.find("stage", 4, 2), nullptr)
      << "payload of task 1 loaded under the flipped index 2";
  EXPECT_EQ(loaded.find("stage", 4, 1), nullptr);
  ASSERT_NE(loaded.find("stage", 4, 3), nullptr);
  EXPECT_EQ(loaded.record_count(), 1u);
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsVersionOneFile) {
  const std::string path = temp_path("version1.bin");
  Checkpoint ckpt("fig5", "fp");
  ckpt.put("stage", 1, 0, {9});
  ckpt.save(path);
  std::string raw = read_file(path);
  raw[6] = 1;
  raw[7] = raw[8] = raw[9] = 0;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << raw;
  try {
    (void)Checkpoint::load(path);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("format version 1;"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("delete it and rerun"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

/// Payload of toy record `i`: a length and content that vary with i, so
/// records straddle varint width boundaries and never coincide.
std::vector<std::uint8_t> toy_payload(std::size_t i) {
  std::vector<std::uint8_t> out(i * 11 % 37);
  for (std::size_t b = 0; b < out.size(); ++b) {
    out[b] = static_cast<std::uint8_t>(i * 31 + b * 7);
  }
  return out;
}

struct ToyRecord {
  std::string stage;
  std::size_t task_count;
  std::size_t task;
};

/// A multi-stage record set; stage "b" is filled out of task order.
std::vector<ToyRecord> toy_records() {
  std::vector<ToyRecord> out;
  for (std::size_t t = 0; t < 5; ++t) out.push_back({"a", 5, t});
  for (const std::size_t t : {6u, 0u, 3u, 130u, 7u}) {
    out.push_back({"b", 200, t});
  }
  for (std::size_t t = 0; t < 3; ++t) out.push_back({"c/last", 3, t});
  return out;
}

/// Save `records` to `path` one save per record; returns the file size
/// after each save, asserting that every save only appended.
std::vector<std::size_t> save_growing(const std::string& path,
                                      const std::vector<ToyRecord>& records) {
  std::remove(path.c_str());
  Checkpoint ckpt("toy", "fp-growing");
  std::vector<std::size_t> sizes;
  std::string previous;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const ToyRecord& r = records[i];
    ckpt.put(r.stage, r.task_count, r.task, toy_payload(i));
    ckpt.save(path);
    const std::string now = read_file(path);
    EXPECT_GT(now.size(), previous.size());
    EXPECT_EQ(now.compare(0, previous.size(), previous), 0)
        << "save " << i << " rewrote bytes an earlier save had written";
    previous = now;
    sizes.push_back(now.size());
  }
  return sizes;
}

/// The loaded checkpoint holds exactly records [0, n) of `records`, each
/// byte-identical to what was put.
void expect_exactly_first(const Checkpoint& loaded,
                          const std::vector<ToyRecord>& records,
                          std::size_t n) {
  EXPECT_EQ(loaded.record_count(), n);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const ToyRecord& r = records[i];
    const std::vector<std::uint8_t>* got =
        loaded.find(r.stage, r.task_count, r.task);
    if (i < n) {
      ASSERT_NE(got, nullptr) << "record " << i << " lost";
      EXPECT_EQ(*got, toy_payload(i)) << "record " << i;
    } else {
      EXPECT_EQ(got, nullptr) << "record " << i << " should be gone";
    }
  }
}

TEST(CheckpointTest, SavesAppendSoEachFileIsAPrefixOfTheNext) {
  const std::string path = temp_path("append.bin");
  const std::vector<ToyRecord> records = toy_records();
  (void)save_growing(path, records);
  expect_exactly_first(Checkpoint::load(path), records, records.size());
  std::remove(path.c_str());
}

TEST(CheckpointTest, NeverAppendsToAFileItDidNotLeave) {
  const std::string path = temp_path("foreign.bin");
  Checkpoint ckpt("toy", "fp");
  ckpt.put("s", 4, 0, {1, 2, 3});
  ckpt.save(path);

  // Another writer replaces the file: the next save must rewrite the whole
  // log rather than append to bytes it never wrote.
  std::ofstream(path, std::ios::binary | std::ios::trunc) << "stranger";
  ckpt.put("s", 4, 1, {4, 5});
  ckpt.save(path);
  Checkpoint loaded = Checkpoint::load(path);
  EXPECT_EQ(loaded.record_count(), 2u);

  // A loaded checkpoint's first save rewrites too (it compacts a torn
  // tail); afterwards saves append again.
  const std::string before = read_file(path);
  std::ofstream(path, std::ios::binary | std::ios::app) << "torn";
  Checkpoint reloaded = Checkpoint::load(path);
  reloaded.put("s", 4, 2, {6});
  reloaded.save(path);
  const std::string compacted = read_file(path);
  EXPECT_EQ(compacted.find("torn"), std::string::npos);
  EXPECT_EQ(compacted.compare(0, before.size(), before), 0);
  reloaded.put("s", 4, 3, {7});
  reloaded.save(path);
  const std::string appended = read_file(path);
  EXPECT_EQ(appended.compare(0, compacted.size(), compacted), 0);
  EXPECT_EQ(Checkpoint::load(path).record_count(), 4u);
  std::remove(path.c_str());
}

TEST(CheckpointTest, TornTailAtEveryOffsetLoadsExactlyTheEarlierRecords) {
  const std::string path = temp_path("torn.bin");
  const std::vector<ToyRecord> records = toy_records();
  const std::vector<std::size_t> sizes = save_growing(path, records);
  const std::string full = read_file(path);
  const std::size_t last_start = sizes[sizes.size() - 2];
  ASSERT_LT(last_start, full.size());

  ::testing::internal::CaptureStderr();
  for (std::size_t cut = last_start; cut < full.size(); ++cut) {
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << full.substr(0, cut);
    SCOPED_TRACE("truncated to " + std::to_string(cut) + " bytes");
    expect_exactly_first(Checkpoint::load(path), records,
                         records.size() - 1);
  }
  const std::string notes = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(notes.find("dropping torn record"), std::string::npos) << notes;
  std::remove(path.c_str());
}

/// Allowed outcomes of loading damaged bytes: a CheckpointError, or a
/// subset of the original records, each byte-identical to the original.
/// Returns false on the error outcome.
bool expect_reject_or_subset(const std::string& bytes,
                             const std::string& path,
                             const std::vector<ToyRecord>& records) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  std::optional<Checkpoint> loaded;
  try {
    loaded = Checkpoint::load(path);
  } catch (const CheckpointError&) {
    return false;
  }
  EXPECT_EQ(loaded->experiment(), "toy");
  EXPECT_EQ(loaded->fingerprint(), "fp-growing");
  std::size_t matched = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const ToyRecord& r = records[i];
    const std::vector<std::uint8_t>* got =
        loaded->find(r.stage, r.task_count, r.task);
    if (got == nullptr) continue;
    EXPECT_EQ(*got, toy_payload(i)) << "record " << i << " altered";
    ++matched;
  }
  // Nothing beyond the originals: no record under a foreign stage or task.
  EXPECT_EQ(loaded->record_count(), matched);
  return true;
}

/// Byte ranges [begin, end) of every varint length or index field of the
/// log `bytes`, found by walking its known layout.
std::vector<std::pair<std::size_t, std::size_t>> varint_fields(
    const std::string& bytes) {
  const auto* data = reinterpret_cast<const std::uint8_t*>(bytes.data());
  ByteReader reader(data, bytes.size());
  std::vector<std::pair<std::size_t, std::size_t>> out;
  const auto offset = [&] { return bytes.size() - reader.remaining(); };
  const auto field = [&] {
    const std::size_t begin = offset();
    const std::uint64_t v = reader.varint();
    out.emplace_back(begin, offset());
    return v;
  };
  (void)reader.bytes(10);  // magic + version
  (void)reader.bytes(field());  // experiment
  (void)reader.bytes(field());  // fingerprint
  (void)reader.fixed64();
  while (reader.remaining() > 0) {
    (void)reader.bytes(field());  // stage
    (void)field();                // task_count
    (void)field();                // task
    (void)reader.bytes(field());  // payload
    (void)reader.fixed64();
  }
  return out;
}

std::string encode_varint(std::uint64_t v) {
  ByteWriter w;
  w.put_varint(v);
  return {reinterpret_cast<const char*>(w.bytes().data()), w.bytes().size()};
}

TEST(CheckpointTest, HostileBytesAreRejectedOrLoadAnOriginalSubset) {
  // Deterministic mutation property test over a real multi-record log:
  // seeded bit flips, every truncation length and inflated length/index
  // varints.  Load may only throw CheckpointError or return a subset of the
  // original records; it must never crash (the sanitizer build runs this).
  const std::string source = temp_path("hostile_source.bin");
  const std::string path = temp_path("hostile.bin");
  const std::vector<ToyRecord> records = toy_records();
  (void)save_growing(source, records);
  const std::string log = read_file(source);
  ASSERT_TRUE(expect_reject_or_subset(log, path, records));

  ::testing::internal::CaptureStderr();
  std::size_t rejected = 0;
  std::size_t trials = 0;
  for (std::size_t cut = 0; cut <= log.size(); ++cut, ++trials) {
    if (!expect_reject_or_subset(log.substr(0, cut), path, records)) {
      ++rejected;
    }
  }

  std::uint64_t rng = 0x9E3779B97F4A7C15ULL;
  const auto next = [&rng] {
    rng ^= rng >> 12;
    rng ^= rng << 25;
    rng ^= rng >> 27;
    return rng * 0x2545F4914F6CDD1DULL;
  };
  for (int trial = 0; trial < 1500; ++trial, ++trials) {
    std::string mutated = log;
    const int flips = 1 + static_cast<int>(next() % 3);
    for (int f = 0; f < flips; ++f) {
      const std::uint64_t bit = next() % (mutated.size() * 8);
      mutated[bit / 8] = static_cast<char>(mutated[bit / 8] ^ (1 << (bit % 8)));
    }
    if (!expect_reject_or_subset(mutated, path, records)) ++rejected;
  }

  const auto fields = varint_fields(log);
  ASSERT_GT(fields.size(), 4 * records.size());
  for (const auto& [begin, end] : fields) {
    const std::uint64_t original =
        ByteReader(reinterpret_cast<const std::uint8_t*>(log.data()) + begin,
                   end - begin)
            .varint();
    for (const std::uint64_t inflated :
         {original + 1, original * 1000 + 7, std::uint64_t{1} << 40,
          ~std::uint64_t{0}}) {
      const std::string mutated = log.substr(0, begin) +
                                  encode_varint(inflated) + log.substr(end);
      if (!expect_reject_or_subset(mutated, path, records)) ++rejected;
      ++trials;
    }
  }
  (void)::testing::internal::GetCapturedStderr();
  // Header damage must have been rejected somewhere; most damage costs
  // records rather than the whole file.
  EXPECT_GT(rejected, 0u);
  EXPECT_LT(rejected, trials);
  std::remove(source.c_str());
  std::remove(path.c_str());
}

// --- FtSession orchestration (toy stage functions) ---------------------------

const TaskCodec<std::uint64_t>& u64_codec() {
  static const TaskCodec<std::uint64_t> codec{
      [](const std::uint64_t& v, ByteWriter& w) { w.put_varint(v); },
      [](ByteReader& r) { return r.varint(); }};
  return codec;
}

std::uint64_t toy_task(std::size_t i) {
  return static_cast<std::uint64_t>(i * i + 1);
}

TEST(FtSessionTest, InjectedThrowIsRetriedAndRecovered) {
  clear_interrupt();
  FtOptions options;
  options.fault = {2, FaultKind::kThrow, 1};
  FtSession session(options, "toy", "fp");
  ThreadPool pool(2);
  const auto out = ft_parallel_map<std::uint64_t>(session, "s", pool, 8,
                                                  toy_task, u64_codec());
  EXPECT_TRUE(out.incomplete.empty());
  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(out.results[i].has_value());
    EXPECT_EQ(*out.results[i], toy_task(i));
  }
  EXPECT_EQ(session.failed_attempts(), 1u);
}

TEST(FtSessionTest, TimeBasedCadenceFlushesMidStage) {
  clear_interrupt();
  const std::string path = temp_path("interval.bin");
  std::remove(path.c_str());

  // Count cadence effectively off (flush every 1000 completions), time
  // cadence at 1 ms: a stage of slow-ish tasks must still flush mid-stage.
  FtOptions options;
  options.checkpoint_path = path;
  options.checkpoint_every = 1000;
  options.checkpoint_interval_ms = 1;
  FtSession timed(options, "toy", "fp");
  ThreadPool pool(1);
  const auto slow_task = [](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return toy_task(i);
  };
  (void)ft_parallel_map<std::uint64_t>(timed, "s", pool, 6, slow_task,
                                       u64_codec());
  // 6 completions at >= 1 ms apart with a 1 ms budget: every completion is
  // flush-due, and the final stage flush rides on top.
  EXPECT_GE(timed.flush_count(), 3u);
  EXPECT_EQ(Checkpoint::load(path).record_count(), 6u);
  std::remove(path.c_str());

  // Without the interval the same stage coasts on the count cadence and
  // flushes exactly once, at stage end.
  clear_interrupt();
  FtOptions counted = options;
  counted.checkpoint_interval_ms = 0;
  FtSession plain(counted, "toy", "fp");
  (void)ft_parallel_map<std::uint64_t>(plain, "s", pool, 6, slow_task,
                                       u64_codec());
  EXPECT_EQ(plain.flush_count(), 1u);
  std::remove(path.c_str());
}

TEST(FtSessionTest, InjectedCorruptionIsCaughtByChecksumAndRetried) {
  clear_interrupt();
  FtOptions options;
  options.fault = {4, FaultKind::kCorrupt, 1};
  FtSession session(options, "toy", "fp");
  ThreadPool pool(2);
  const auto out = ft_parallel_map<std::uint64_t>(session, "s", pool, 8,
                                                  toy_task, u64_codec());
  EXPECT_TRUE(out.incomplete.empty());
  ASSERT_TRUE(out.results[4].has_value());
  EXPECT_EQ(*out.results[4], toy_task(4));
  EXPECT_EQ(session.failed_attempts(), 1u);
}

TEST(FtSessionTest, InjectedHangIsAbandonedByWatchdogAndRequeued) {
  clear_interrupt();
  FtOptions options;
  options.fault = {1, FaultKind::kHang, 1};
  options.watchdog_ms = 100;
  FtSession session(options, "toy", "fp");
  ThreadPool pool(2);
  const auto out = ft_parallel_map<std::uint64_t>(session, "s", pool, 6,
                                                  toy_task, u64_codec());
  EXPECT_TRUE(out.incomplete.empty());
  for (std::size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(out.results[i].has_value());
    EXPECT_EQ(*out.results[i], toy_task(i));
  }
  EXPECT_GE(session.failed_attempts(), 1u);
}

TEST(FtSessionTest, ExhaustedRetriesAbortWithoutAllowPartial) {
  clear_interrupt();
  FtOptions options;
  options.fault = {3, FaultKind::kThrow, 10};  // outlives the budget
  options.max_attempts = 2;
  FtSession session(options, "toy", "fp");
  ThreadPool pool(2);
  EXPECT_THROW((void)ft_parallel_map<std::uint64_t>(session, "s", pool, 8,
                                                    toy_task, u64_codec()),
               CampaignAborted);
}

TEST(FtSessionTest, AllowPartialRecordsExhaustedShardInManifest) {
  clear_interrupt();
  FtOptions options;
  options.fault = {3, FaultKind::kThrow, 10};
  options.max_attempts = 2;
  options.allow_partial = true;
  FtSession session(options, "toy", "fp");
  ThreadPool pool(2);
  const auto out = ft_parallel_map<std::uint64_t>(session, "s", pool, 8,
                                                  toy_task, u64_codec());
  ASSERT_EQ(out.incomplete.size(), 1u);
  EXPECT_EQ(out.incomplete[0], 3u);
  EXPECT_FALSE(out.results[3].has_value());
  for (std::size_t i = 0; i < 8; ++i) {
    if (i != 3) {
      EXPECT_TRUE(out.results[i].has_value());
    }
  }
  ASSERT_EQ(session.incomplete().size(), 1u);
  EXPECT_EQ(session.incomplete()[0].stage, "s");
  EXPECT_EQ(session.incomplete()[0].task, 3u);
}

TEST(FtSessionTest, StopAfterInterruptsWithCheckpointThenResumes) {
  clear_interrupt();
  const std::string path = temp_path("stop_resume.bin");
  std::remove(path.c_str());

  FtOptions options;
  options.checkpoint_path = path;
  options.checkpoint_every = 1;
  options.stop_after = 3;
  {
    FtSession session(options, "toy", "fp");
    ThreadPool pool(2);
    EXPECT_THROW((void)ft_parallel_map<std::uint64_t>(session, "s", pool, 10,
                                                      toy_task, u64_codec()),
                 Interrupted);
  }
  const Checkpoint flushed = Checkpoint::load(path);
  EXPECT_GE(flushed.record_count(), 3u);
  EXPECT_LT(flushed.record_count(), 10u);

  clear_interrupt();
  FtOptions resume = options;
  resume.stop_after = 0;
  resume.resume = true;
  FtSession session(resume, "toy", "fp");
  ThreadPool pool(4);  // a different worker count must not matter
  const auto out = ft_parallel_map<std::uint64_t>(session, "s", pool, 10,
                                                  toy_task, u64_codec());
  for (std::size_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(out.results[i].has_value());
    EXPECT_EQ(*out.results[i], toy_task(i));
  }
  std::remove(path.c_str());
}

TEST(FtSessionTest, ResumeRejectsFingerprintAndExperimentMismatch) {
  clear_interrupt();
  const std::string path = temp_path("mismatch.bin");
  Checkpoint ckpt("toy", "fp-original");
  ckpt.put("s", 4, 0, {1});
  ckpt.save(path);

  FtOptions options;
  options.checkpoint_path = path;
  options.resume = true;
  EXPECT_THROW(FtSession(options, "toy", "fp-DIFFERENT"), CheckpointError);
  EXPECT_THROW(FtSession(options, "other-experiment", "fp-original"),
               CheckpointError);
  // The matching pair loads fine.
  FtSession ok(options, "toy", "fp-original");
  EXPECT_EQ(ok.completed_tasks(), 0u);
  std::remove(path.c_str());
}

TEST(FtSessionTest, ResumeWithMissingFileStartsFresh) {
  clear_interrupt();
  FtOptions options;
  options.checkpoint_path = temp_path("never_written.bin");
  options.resume = true;
  FtSession session(options, "toy", "fp");
  ThreadPool pool(2);
  const auto out = ft_parallel_map<std::uint64_t>(session, "s", pool, 4,
                                                  toy_task, u64_codec());
  for (std::size_t i = 0; i < 4; ++i) EXPECT_TRUE(out.results[i].has_value());
  std::remove(options.checkpoint_path.c_str());
}

// --- resume bit-identity against the golden fixtures -------------------------

std::string read_fixture(const std::string& relative) {
  const std::string path = std::string(TSC_SOURCE_DIR) + "/" + relative;
  std::string text = read_file(path);
  EXPECT_FALSE(text.empty()) << "missing fixture " << path;
  return text;
}

/// Render an experiment through a fault-tolerance session, exactly as
/// `tsc_run --json` does.  Throws Interrupted/CampaignAborted like the CLI
/// path would.
std::string run_ft_json(const std::string& name, std::size_t samples,
                        std::size_t shard_size, unsigned workers,
                        const FtOptions& ft) {
  const Experiment* experiment = find_experiment(name);
  EXPECT_NE(experiment, nullptr);
  RunOptions options;
  options.samples = samples;
  options.shard_size = shard_size;
  options.workers = workers;
  options.ft = ft;
  FtSession session(ft, experiment->name, "test-fingerprint");
  options.ft_session = &session;
  Json doc = Json::object();
  doc.set("experiment", experiment->name)
      .set("description", experiment->description)
      .set("seed", options.master_seed)
      .set("results", experiment->run(options));
  return doc.dump(-1) + "\n";
}

/// The tentpole contract, end to end: run with a checkpoint and an
/// interrupt after `stop_after` completed shards, then resume (with a
/// DIFFERENT worker count) and demand byte-identity with `expected`.
void check_interrupt_resume(const std::string& name, std::size_t samples,
                            std::size_t shard_size,
                            std::size_t stop_after,
                            const std::string& expected) {
  const std::string path =
      temp_path(name + "_k" + std::to_string(stop_after) + ".bin");
  std::remove(path.c_str());

  clear_interrupt();
  FtOptions interrupted;
  interrupted.checkpoint_path = path;
  interrupted.checkpoint_every = 1;
  interrupted.stop_after = stop_after;
  EXPECT_THROW(
      (void)run_ft_json(name, samples, shard_size, /*workers=*/2, interrupted),
      Interrupted)
      << name << " k=" << stop_after;

  clear_interrupt();
  FtOptions resume;
  resume.checkpoint_path = path;
  resume.resume = true;
  const std::string out =
      run_ft_json(name, samples, shard_size, /*workers=*/5, resume);
  EXPECT_EQ(out, expected)
      << name << ": resume after " << stop_after
      << " shards diverged from the uninterrupted run";
  std::remove(path.c_str());
}

TEST(ResumeBitIdentityTest, Fig5MatchesGoldenFixtureAfterInterrupts) {
  const std::string expected =
      read_fixture("tests/golden/fig5_s3000_ss1000.json");
  // Several interruption points: mid-first-stage and into later stages
  // (fig5 runs 4 stages of 6 shard-tasks each at this scale).
  for (const std::size_t k : {2u, 7u}) {
    check_interrupt_resume("fig5", 3000, 1000, k, expected);
  }
}

TEST(ResumeBitIdentityTest, AttackMatrixMatchesGoldenFixtureAfterInterrupt) {
  const std::string expected =
      read_fixture("tests/golden/attack_matrix_s1200_ss400.json");
  check_interrupt_resume("attack_matrix", 1200, 400, 3, expected);
}

TEST(ResumeBitIdentityTest, FlushMatrixMatchesGoldenFixtureAfterInterrupt) {
  // The flush-channel campaign checkpoints FlushOutcome payloads (the
  // FlushProfile codec above); interrupting mid-matrix and resuming with a
  // different worker count must still land byte-identically on the golden.
  const std::string expected =
      read_fixture("tests/golden/flush_matrix_s600_ss200.json");
  check_interrupt_resume("flush_matrix", 600, 200, 3, expected);
}

TEST(ResumeBitIdentityTest, PwcetMatrixMatchesGoldenFixtureAfterInterrupt) {
#ifndef NDEBUG
  GTEST_SKIP() << "pwcet_matrix golden runs in NDEBUG (Release) builds only";
#endif
  const std::string expected =
      read_fixture("tests/golden/pwcet_matrix_s240_ss80.json");
  check_interrupt_resume("pwcet_matrix", 240, 80, 11, expected);
}

TEST(ResumeBitIdentityTest, AttackMatrixResumesToGoldenAfterTornTail) {
  // A crash mid-append: interrupt after 7 shards, then tear the last
  // record off the checkpoint.  Resume drops the torn record, re-runs its
  // shard, compacts the log and still lands on the golden bytes.
  const std::string expected =
      read_fixture("tests/golden/attack_matrix_s1200_ss400.json");
  const std::string path = temp_path("attack_matrix_torn.bin");
  std::remove(path.c_str());
  clear_interrupt();
  FtOptions interrupted;
  interrupted.checkpoint_path = path;
  interrupted.checkpoint_every = 1;
  interrupted.stop_after = 7;
  EXPECT_THROW((void)run_ft_json("attack_matrix", 1200, 400, /*workers=*/2,
                                 interrupted),
               Interrupted);
  const std::size_t saved = Checkpoint::load(path).record_count();
  ASSERT_GE(saved, 7u);
  const std::string full = read_file(path);
  ASSERT_GT(full.size(), 300u);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << full.substr(0, full.size() - 300);
  EXPECT_EQ(Checkpoint::load(path).record_count(), saved - 1);

  clear_interrupt();
  FtOptions resume;
  resume.checkpoint_path = path;
  resume.resume = true;
  EXPECT_EQ(run_ft_json("attack_matrix", 1200, 400, /*workers=*/3, resume),
            expected);
  // The resumed run rewrote the log whole: every shard, no torn tail.
  ::testing::internal::CaptureStderr();
  const Checkpoint compacted = Checkpoint::load(path);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  EXPECT_GT(compacted.record_count(), saved);
  std::remove(path.c_str());
}

/// The rows of the "cells" array in a compact JSON document, each as its
/// own text (the matrices' strings hold no brackets, so depth counting is
/// enough).
std::vector<std::string> cell_rows(const std::string& json) {
  const std::string key = "\"cells\":[";
  const std::size_t start = json.find(key);
  EXPECT_NE(start, std::string::npos) << json;
  std::vector<std::string> rows;
  if (start == std::string::npos) return rows;
  int depth = 0;
  std::size_t row_start = 0;
  for (std::size_t i = start + key.size(); i < json.size(); ++i) {
    const char ch = json[i];
    if (ch == '{' || ch == '[') {
      if (depth++ == 0) row_start = i;
    } else if (ch == '}' || ch == ']') {
      if (depth == 0) break;  // the array's own closing bracket
      if (--depth == 0) rows.push_back(json.substr(row_start, i + 1 - row_start));
    }
  }
  return rows;
}

// The null-cell path of the per-cell reduce: a cell whose first attack
// never completed a shard reports that attack as null with 0 samples, and
// the parallel reduce leaves every other row as the fault-free run has it.
// Task 0 is cell 0's first attack; with one shard per cell it is that
// attack's only shard.
TEST(PartialMatrixTest, ExhaustedFirstShardNullsOnlyThatAttackOfCellZero) {
  struct Case {
    std::string experiment;
    std::string first_attack;
    std::string second_attack;
  };
  for (const Case& c : {Case{"attack_matrix", "prime_probe", "evict_time"},
                        Case{"flush_matrix", "flush_reload", "flush_flush"}}) {
    clear_interrupt();
    const std::vector<std::string> clean = cell_rows(
        run_ft_json(c.experiment, 100, 100, /*workers=*/4, FtOptions{}));
    FtOptions faulty;
    faulty.allow_partial = true;
    faulty.max_attempts = 2;
    faulty.fault = {0, FaultKind::kThrow, 10};  // outlives the budget
    const std::vector<std::string> partial = cell_rows(
        run_ft_json(c.experiment, 100, 100, /*workers=*/3, faulty));
    ASSERT_EQ(partial.size(), 14u) << c.experiment;
    ASSERT_EQ(clean.size(), partial.size()) << c.experiment;

    const std::string second_key = "\"" + c.second_attack + "\":";
    const std::size_t second_at = clean[0].find(second_key);
    ASSERT_NE(second_at, std::string::npos) << clean[0];
    EXPECT_EQ(partial[0],
              "{\"policy\":\"modulo\",\"partitioned\":false,\"samples\":0,\"" +
                  c.first_attack + "\":null," + clean[0].substr(second_at))
        << c.experiment;
    for (std::size_t row = 1; row < clean.size(); ++row) {
      EXPECT_EQ(partial[row], clean[row]) << c.experiment << " cell " << row;
    }
  }
}

// Self-referential sweep at smoke scale: for a spread of interruption
// points the resumed run must match the uninterrupted run bit for bit (the
// fixture-based tests above pin absolute values; this one covers many k
// cheaply).
TEST(ResumeBitIdentityTest, AttackMatrixSelfConsistentAcrossManyCutPoints) {
  clear_interrupt();
  const std::string reference =
      run_ft_json("attack_matrix", 400, 200, /*workers=*/4, FtOptions{});
  for (const std::size_t k : {1u, 5u, 13u, 20u}) {
    check_interrupt_resume("attack_matrix", 400, 200, k, reference);
  }
}

}  // namespace
}  // namespace tsc::runner
