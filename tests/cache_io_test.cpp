// Adversarial tests for the on-disk solve-cache format.
//
// The durable cache file is new attack surface: a loader that trusts a
// declared count, skips a checksum or commits entries before the whole
// file verified will corrupt silently.  The corruption matrix below
// feeds the loader every malformed shape the format can express —
// zero-byte file, every possible truncation, bad magic, future/past
// format versions, checksum mismatches, oversized declared counts,
// trailing garbage — and requires the same outcome each time: a clean
// cold cache with load_rejected counted, never a crash or a partial
// load.  The CI sanitizer job runs this standalone (`ctest -L
// persistence`).

#include "engine/cache_io.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "engine/cache_journal.h"
#include "engine/solve_cache.h"

namespace {

using namespace dlm;
using namespace dlm::engine;

model_trace sample_trace(double seed) {
  model_trace trace({1, 2, 3}, {2.0, 3.0, 4.0, 5.0});
  // Values with busy mantissas, so "bitwise identical" means more than
  // "short decimals survived".
  for (std::size_t i = 0; i < trace.distances().size(); ++i)
    for (std::size_t j = 0; j < trace.times().size(); ++j)
      trace.predicted(i)[j] =
          seed / 3.0 + static_cast<double>(i * 7 + j) / 9.7;
  trace.effective_dt = 0.1 + 0.2;  // famously not 0.3
  return trace;
}

void fill_sample_cache(solve_cache& cache) {
  cache.store_trace("trace/b", sample_trace(1.0));
  cache.store_trace("trace/a", sample_trace(2.0));
  cache.store_value("value/y", 1.0 / 3.0);
  cache.store_value("value/x", 0.1);
}

std::string sample_bytes() {
  solve_cache cache;
  fill_sample_cache(cache);
  return serialize_cache(cache);
}

bool traces_bitwise_equal(const model_trace& a, const model_trace& b) {
  if (a.domain != b.domain) return false;
  if (!std::ranges::equal(a.distances(), b.distances())) return false;
  if (a.times().size() != b.times().size()) return false;
  for (std::size_t j = 0; j < a.times().size(); ++j)
    if (std::bit_cast<std::uint64_t>(a.times()[j]) !=
        std::bit_cast<std::uint64_t>(b.times()[j]))
      return false;
  if (std::bit_cast<std::uint64_t>(a.effective_dt) !=
      std::bit_cast<std::uint64_t>(b.effective_dt))
    return false;
  for (std::size_t i = 0; i < a.distances().size(); ++i) {
    if (a.predicted(i).size() != b.predicted(i).size()) return false;
    for (std::size_t j = 0; j < a.predicted(i).size(); ++j)
      if (std::bit_cast<std::uint64_t>(a.predicted(i)[j]) !=
          std::bit_cast<std::uint64_t>(b.predicted(i)[j]))
        return false;
  }
  return true;
}

// Little-endian field patching for the corruption matrix.
std::uint64_t read_u64_at(const std::string& bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(bytes[at + i]))
         << (8 * i);
  return v;
}

void write_u64_at(std::string& bytes, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

void write_u32_at(std::string& bytes, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

// Fixed offsets of the file layout (see cache_io.h).
constexpr std::size_t kVersionAt = 8;
constexpr std::size_t kSectionHeaderBytes = 4 + 8 + 8;
constexpr std::size_t kTraceSectionAt = 16;  // magic + version + count
constexpr std::size_t kTracePayloadLenAt = kTraceSectionAt + 4;
constexpr std::size_t kTraceChecksumAt = kTraceSectionAt + 4 + 8;
constexpr std::size_t kTracePayloadAt = kTraceSectionAt + kSectionHeaderBytes;

/// Recomputes the trace section's checksum after a payload mutation, so
/// the corruption under test is reached instead of the checksum guard.
void reseal_trace_section(std::string& bytes) {
  const std::uint64_t payload_len = read_u64_at(bytes, kTracePayloadLenAt);
  const std::string_view payload(bytes.data() + kTracePayloadAt,
                                 static_cast<std::size_t>(payload_len));
  write_u64_at(bytes, kTraceChecksumAt, cache_checksum(payload));
}

/// The single assertion of the whole matrix: the corrupt bytes load
/// nothing, leave the cache exactly as it was, and count one rejection.
void expect_rejected(const std::string& bytes, const std::string& label) {
  solve_cache cache;
  const cache_load_result result = deserialize_cache(cache, bytes);
  EXPECT_FALSE(result.loaded) << label;
  EXPECT_FALSE(result.error.empty()) << label;
  EXPECT_FALSE(result.file_missing) << label;
  EXPECT_EQ(result.traces, 0u) << label;
  EXPECT_EQ(result.values, 0u) << label;
  EXPECT_EQ(cache.size(), 0u) << label << ": partial load";
  EXPECT_EQ(cache.stats().load_rejected, 1u) << label;
}

TEST(CacheIo, RoundTripIsBitwiseIdentical) {
  solve_cache original;
  fill_sample_cache(original);
  const std::string bytes = serialize_cache(original);

  solve_cache loaded;
  const cache_load_result result = deserialize_cache(loaded, bytes);
  ASSERT_TRUE(result.loaded) << result.error;
  EXPECT_EQ(result.traces, 2u);
  EXPECT_EQ(result.values, 2u);
  EXPECT_EQ(loaded.size(), 4u);
  EXPECT_EQ(loaded.stats().load_rejected, 0u);

  const solve_cache::sorted_view entries = original.sorted_entries();
  for (const solve_cache::trace_ref& entry : entries.traces()) {
    const std::shared_ptr<const model_trace> hit =
        loaded.find_trace(std::string(entry.key));
    ASSERT_NE(hit, nullptr) << entry.key;
    EXPECT_TRUE(traces_bitwise_equal(*entry.trace, *hit)) << entry.key;
  }
  for (const solve_cache::value_ref& entry : entries.values()) {
    const std::optional<double> hit = loaded.find_value(std::string(entry.key));
    ASSERT_TRUE(hit.has_value()) << entry.key;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(entry.value),
              std::bit_cast<std::uint64_t>(*hit))
        << entry.key;
  }
}

TEST(CacheIo, SerializationIsDeterministicAcrossInsertionOrder) {
  solve_cache forward;
  forward.store_trace("a", sample_trace(1.0));
  forward.store_trace("b", sample_trace(2.0));
  forward.store_value("c", 0.5);
  forward.store_value("d", 0.25);
  solve_cache backward;
  backward.store_value("d", 0.25);
  backward.store_value("c", 0.5);
  backward.store_trace("b", sample_trace(2.0));
  backward.store_trace("a", sample_trace(1.0));
  EXPECT_EQ(serialize_cache(forward), serialize_cache(backward));
}

TEST(CacheIo, SaveAndLoadThroughAFile) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("dlm_cache_io_test_" + std::to_string(::getpid()) + ".bin");
  solve_cache original;
  fill_sample_cache(original);
  save_cache(original, path);
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"))
      << "atomic save must not leave its temp file behind";

  solve_cache loaded;
  const cache_load_result result = load_cache(loaded, path);
  EXPECT_TRUE(result.loaded) << result.error;
  EXPECT_EQ(loaded.size(), original.size());
  std::filesystem::remove(path);
}

TEST(CacheIo, MissingFileIsACleanColdStartNotARejection) {
  solve_cache cache;
  const cache_load_result result =
      load_cache(cache, "/nonexistent/dlm/cache.bin");
  EXPECT_FALSE(result.loaded);
  EXPECT_TRUE(result.file_missing);
  EXPECT_TRUE(result.error.empty());
  EXPECT_EQ(cache.stats().load_rejected, 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CacheIo, ZeroByteFileIsRejected) { expect_rejected("", "zero-byte"); }

TEST(CacheIo, EveryTruncationIsRejected) {
  const std::string bytes = sample_bytes();
  // Every proper prefix must reject: whatever byte the file is cut at,
  // no partial state may leak into the cache.
  for (std::size_t len = 0; len < bytes.size(); ++len)
    expect_rejected(bytes.substr(0, len),
                    "truncated at " + std::to_string(len));
}

TEST(CacheIo, BadMagicIsRejected) {
  std::string bytes = sample_bytes();
  bytes[0] = 'X';
  expect_rejected(bytes, "bad magic");
}

TEST(CacheIo, FutureAndPastFormatVersionsAreRejected) {
  std::string future = sample_bytes();
  write_u32_at(future, kVersionAt, kCacheFormatVersion + 1);
  expect_rejected(future, "future version");

  std::string past = sample_bytes();
  write_u32_at(past, kVersionAt, 0);
  expect_rejected(past, "past version");
}

TEST(CacheIo, GenuineV1LayoutFileDegradesToACleanColdCache) {
  // A byte-faithful v1 file (trace entries carry no domain string): the
  // v2 loader must reject it whole — a clean cold start with
  // load_rejected counted — never reinterpret v1 bytes through the v2
  // layout.
  const auto put_u32 = [](std::string& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  };
  const auto put_u64 = [](std::string& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  };
  const auto put_f64 = [&](std::string& out, double v) {
    put_u64(out, std::bit_cast<std::uint64_t>(v));
  };

  std::string traces;
  put_u64(traces, 1);  // one entry
  const std::string key = "trace/v1";
  put_u32(traces, static_cast<std::uint32_t>(key.size()));
  traces += key;
  // v1 entry: distances, times, effective_dt, blob — NO domain field.
  put_u32(traces, 2);
  put_u32(traces, 1);
  put_u32(traces, static_cast<std::uint32_t>(-2));
  put_u32(traces, 3);
  put_f64(traces, 2.0);
  put_f64(traces, 3.0);
  put_f64(traces, 4.0);
  put_f64(traces, 0.02);
  for (int i = 0; i < 6; ++i) put_f64(traces, 0.5 * i);

  std::string values;
  put_u64(values, 0);

  std::string bytes;
  bytes += kCacheMagic;
  put_u32(bytes, 1);  // v1
  put_u32(bytes, 2);  // section count
  const auto append_section = [&](std::uint32_t tag,
                                  const std::string& payload) {
    put_u32(bytes, tag);
    put_u64(bytes, payload.size());
    put_u64(bytes, cache_checksum(payload));
    bytes += payload;
  };
  append_section(1, traces);
  append_section(2, values);
  expect_rejected(bytes, "v1 layout file");
}

TEST(CacheIo, V2RoundTripCarriesDomainLabelsAndA2dTraceBlob) {
  // A trace as the 2-D ADI domain solver produces it: a non-line domain
  // label riding a dense distances × hours blob.  Both must survive the
  // round trip bitwise.
  model_trace sheet({1, 2, 3, 4, 5, 6}, {2.0, 3.0, 4.0, 5.0, 6.0});
  sheet.domain = "grid2d:1,4";
  for (std::size_t i = 0; i < sheet.distances().size(); ++i)
    for (std::size_t j = 0; j < sheet.times().size(); ++j)
      sheet.predicted(i)[j] = 1.0 / (static_cast<double>(i * 5 + j) + 3.0);
  sheet.effective_dt = 0.02;

  model_trace comm = sample_trace(4.0);
  comm.domain = "comm:3|mix=0.050000000000000003";

  solve_cache original;
  original.store_trace("trace/sheet", sheet);
  original.store_trace("trace/comm", comm);
  original.store_trace("trace/line", sample_trace(1.0));
  const std::string bytes = serialize_cache(original);

  solve_cache loaded;
  const cache_load_result result = deserialize_cache(loaded, bytes);
  ASSERT_TRUE(result.loaded) << result.error;
  EXPECT_EQ(result.traces, 3u);

  const std::shared_ptr<const model_trace> sheet_hit =
      loaded.find_trace("trace/sheet");
  ASSERT_NE(sheet_hit, nullptr);
  EXPECT_EQ(sheet_hit->domain, "grid2d:1,4");
  EXPECT_TRUE(traces_bitwise_equal(sheet, *sheet_hit));

  const std::shared_ptr<const model_trace> comm_hit =
      loaded.find_trace("trace/comm");
  ASSERT_NE(comm_hit, nullptr);
  EXPECT_TRUE(traces_bitwise_equal(comm, *comm_hit));

  const std::shared_ptr<const model_trace> line_hit =
      loaded.find_trace("trace/line");
  ASSERT_NE(line_hit, nullptr);
  EXPECT_EQ(line_hit->domain, "line");
}

TEST(CacheIo, ChecksumMismatchIsRejected) {
  // Flip one payload byte in each section without resealing.
  std::string trace_flip = sample_bytes();
  trace_flip[kTracePayloadAt + 9] ^= 0x01;
  expect_rejected(trace_flip, "trace checksum");

  std::string value_flip = sample_bytes();
  value_flip[value_flip.size() - 1] ^= 0x01;
  expect_rejected(value_flip, "value checksum");
}

TEST(CacheIo, OversizedDeclaredCountsAreRejected) {
  // Entry count far beyond what the section's bytes could hold — the
  // loader must reject before allocating, so the resealed checksum is
  // required to reach the count guard at all.
  std::string bytes = sample_bytes();
  write_u64_at(bytes, kTracePayloadAt, 0xFFFFFFFFFFFFull);
  reseal_trace_section(bytes);
  expect_rejected(bytes, "oversized trace count");

  // Oversized inner lengths of the first entry.  v2 layout: entry count
  // u64, then per entry key length u32 + key bytes + domain length u32 +
  // domain bytes + distance count u32 + ...
  const std::size_t key_len_at = kTracePayloadAt + 8;
  const auto read_u32 = [](const std::string& b, std::size_t at) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(b[at + i]))
           << (8 * i);
    return v;
  };

  // The domain string's declared length.
  std::string dom = sample_bytes();
  const std::size_t dom_len_at = key_len_at + 4 + read_u32(dom, key_len_at);
  write_u32_at(dom, dom_len_at, 0xFFFFFFFu);
  reseal_trace_section(dom);
  expect_rejected(dom, "oversized domain length");

  // The distance count, past the domain string.
  std::string inner = sample_bytes();
  const std::size_t dist_count_at =
      dom_len_at + 4 + read_u32(inner, dom_len_at);
  write_u32_at(inner, dist_count_at, 0xFFFFFFFu);
  reseal_trace_section(inner);
  expect_rejected(inner, "oversized distance count");
}

TEST(CacheIo, TrailingGarbageIsRejected) {
  std::string bytes = sample_bytes();
  bytes += "extra";
  expect_rejected(bytes, "trailing garbage");
}

TEST(CacheIo, LaterSectionCorruptionImportsNothingFromEarlierSections) {
  // Valid trace section, corrupt value section: all-or-nothing means
  // even the verified traces must not appear in the cache.
  std::string bytes = sample_bytes();
  bytes[bytes.size() - 1] ^= 0x01;  // inside the value payload
  solve_cache cache;
  const cache_load_result result = deserialize_cache(cache, bytes);
  EXPECT_FALSE(result.loaded);
  EXPECT_EQ(cache.size(), 0u) << "trace entries leaked from a bad file";
}

TEST(CacheIo, RejectionLeavesExistingEntriesUntouched) {
  solve_cache cache;
  cache.store_trace("keep", sample_trace(3.0));
  std::string bytes = sample_bytes();
  bytes[0] = 'X';
  const cache_load_result result = deserialize_cache(cache, bytes);
  EXPECT_FALSE(result.loaded);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.find_trace("keep"), nullptr);
  EXPECT_EQ(cache.stats().load_rejected, 1u);
}

TEST(CacheIo, RepeatedRejectionsAccumulateTheStat) {
  solve_cache cache;
  for (std::size_t i = 1; i <= 3; ++i) {
    const cache_load_result result = deserialize_cache(cache, "bogus");
    EXPECT_FALSE(result.loaded);
    EXPECT_EQ(cache.stats().load_rejected, i);
  }
}

TEST(CacheIo, LoadRespectsTheLruCap) {
  const std::string bytes = sample_bytes();  // 4 entries
  solve_cache capped(2);
  const cache_load_result result = deserialize_cache(capped, bytes);
  EXPECT_TRUE(result.loaded) << result.error;
  EXPECT_EQ(capped.size(), 2u);
  EXPECT_EQ(capped.stats().evictions, 2u);
}

// ------------------------------------------------ journal (WAL) matrix
//
// The write-ahead journal (engine/cache_journal.h) has the opposite
// tail policy from the snapshot: the last record is *expected* to be
// torn after a crash, so replay applies the longest valid prefix — but
// a file whose header is foreign must be rejected wholesale and never
// modified.  The matrix below walks every cut point, flips checksums
// mid-file, injects the torn-write fault, and pins the snapshot
// equivalence that makes compaction safe.

std::filesystem::path journal_test_path(const std::string& tag) {
  return std::filesystem::temp_directory_path() /
         ("dlm_journal_test_" + tag + "_" + std::to_string(::getpid()) +
          ".wal");
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Builds a four-record WAL (trace, value, trace, value) at `path` and
/// returns the record-end byte offsets (boundaries[0] is the header
/// end), so cut-point tests know exactly which prefix holds how many
/// whole records.
std::vector<std::uint64_t> write_sample_journal(
    const std::filesystem::path& path) {
  std::filesystem::remove(path);
  std::vector<std::uint64_t> boundaries;
  cache_journal journal(path);
  boundaries.push_back(journal.bytes());
  journal.append_trace("trace/a", sample_trace(1.0));
  boundaries.push_back(journal.bytes());
  journal.append_value("value/x", 0.1);
  boundaries.push_back(journal.bytes());
  journal.append_trace("trace/b", sample_trace(2.0));
  boundaries.push_back(journal.bytes());
  journal.append_value("value/y", 1.0 / 3.0);
  boundaries.push_back(journal.bytes());
  EXPECT_TRUE(journal.write_error().empty()) << journal.write_error();
  EXPECT_EQ(journal.appended_records(), 4u);
  return boundaries;
}

TEST(CacheJournal, AppendAndReplayRoundTripIsBitwise) {
  const std::filesystem::path path = journal_test_path("roundtrip");
  write_sample_journal(path);

  solve_cache cache;
  const journal_replay_result result = replay_journal(cache, path);
  EXPECT_TRUE(result.replayed) << result.error;
  EXPECT_FALSE(result.file_missing);
  EXPECT_FALSE(result.torn_tail) << result.error;
  EXPECT_EQ(result.traces, 2u);
  EXPECT_EQ(result.values, 2u);
  EXPECT_EQ(result.valid_bytes, result.file_bytes);
  EXPECT_EQ(cache.stats().load_rejected, 0u);

  const std::shared_ptr<const model_trace> hit = cache.find_trace("trace/a");
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(traces_bitwise_equal(sample_trace(1.0), *hit));
  const std::optional<double> value = cache.find_value("value/y");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(1.0 / 3.0),
            std::bit_cast<std::uint64_t>(*value));
  std::filesystem::remove(path);
}

TEST(CacheJournal, MissingWalIsACleanColdStart) {
  solve_cache cache;
  const journal_replay_result result =
      replay_journal(cache, "/nonexistent/dlm/journal.wal");
  EXPECT_TRUE(result.replayed);
  EXPECT_TRUE(result.file_missing);
  EXPECT_EQ(cache.stats().load_rejected, 0u);
}

TEST(CacheJournal, ZeroLengthWalIsACleanColdStart) {
  const std::filesystem::path path = journal_test_path("zero");
  write_file(path, "");
  solve_cache cache;
  const journal_replay_result result = replay_journal(cache, path);
  EXPECT_TRUE(result.replayed) << result.error;
  EXPECT_FALSE(result.torn_tail);
  EXPECT_EQ(result.traces + result.values, 0u);
  EXPECT_EQ(cache.stats().load_rejected, 0u);
  std::filesystem::remove(path);
}

TEST(CacheJournal, EveryTornTailReplaysTheLongestValidPrefix) {
  const std::filesystem::path path = journal_test_path("cuts");
  const std::vector<std::uint64_t> boundaries = write_sample_journal(path);
  const std::string bytes = read_file(path);
  ASSERT_EQ(bytes.size(), boundaries.back());

  const std::filesystem::path cut_path = journal_test_path("cut_prefix");
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::string label = "cut at " + std::to_string(len);
    write_file(cut_path, bytes.substr(0, len));

    // Whole records fully contained in the prefix.
    std::size_t whole = 0;
    while (whole + 1 < boundaries.size() && boundaries[whole + 1] <= len)
      ++whole;
    const bool at_boundary =
        len == 0 || (len >= boundaries.front() && boundaries[whole] == len);

    solve_cache cache;
    const journal_replay_result result = replay_journal(cache, cut_path);
    EXPECT_TRUE(result.replayed) << label << ": " << result.error;
    EXPECT_EQ(result.torn_tail, !at_boundary) << label;
    EXPECT_EQ(result.traces + result.values, len < boundaries.front()
                                                 ? 0u
                                                 : whole)
        << label;
    EXPECT_EQ(cache.size(), len < boundaries.front() ? 0u : whole) << label;
    EXPECT_EQ(cache.stats().load_rejected, 0u) << label;

    // Opening the cut file for appending truncates to the valid prefix,
    // and the journal stays appendable.
    {
      cache_journal journal(cut_path);
      EXPECT_EQ(journal.bytes(), std::max<std::uint64_t>(
                                     result.valid_bytes, 12u))
          << label;
      journal.append_value("value/new", 4.0);
      EXPECT_TRUE(journal.write_error().empty()) << label;
    }
    solve_cache after;
    const journal_replay_result replay_after = replay_journal(after, cut_path);
    EXPECT_TRUE(replay_after.replayed) << label;
    EXPECT_FALSE(replay_after.torn_tail) << label << ": "
                                         << replay_after.error;
    EXPECT_EQ(after.size(), (len < boundaries.front() ? 0u : whole) + 1)
        << label;
  }
  std::filesystem::remove(path);
  std::filesystem::remove(cut_path);
}

TEST(CacheJournal, ChecksumFlipMidFileDropsThatRecordAndItsSuccessors) {
  const std::filesystem::path path = journal_test_path("flip");
  const std::vector<std::uint64_t> boundaries = write_sample_journal(path);
  std::string bytes = read_file(path);
  // Flip one payload byte inside the SECOND record: the first record
  // must replay, the flipped one and everything after it must not —
  // records never apply out of order across a defect.
  bytes[static_cast<std::size_t>(boundaries[2]) - 1] ^= 0x01;
  write_file(path, bytes);

  solve_cache cache;
  const journal_replay_result result = replay_journal(cache, path);
  EXPECT_TRUE(result.replayed);
  EXPECT_TRUE(result.torn_tail);
  EXPECT_EQ(result.error, "record checksum mismatch");
  EXPECT_EQ(result.valid_bytes, boundaries[1]);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.find_trace("trace/a"), nullptr);
  EXPECT_EQ(cache.find_value("value/x"), std::nullopt);
  std::filesystem::remove(path);
}

TEST(CacheJournal, ForeignFileIsRejectedWholeAndNeverModified) {
  const std::filesystem::path path = journal_test_path("foreign");
  const std::string foreign = "NOTAJRNL but twelve+ bytes of someone else's";
  write_file(path, foreign);

  solve_cache cache;
  const journal_replay_result result = replay_journal(cache, path);
  EXPECT_FALSE(result.replayed);
  EXPECT_EQ(result.error, "bad magic");
  EXPECT_EQ(cache.stats().load_rejected, 1u);
  EXPECT_EQ(read_file(path), foreign) << "replay modified a foreign file";

  EXPECT_THROW(cache_journal{path}, std::runtime_error);
  EXPECT_EQ(read_file(path), foreign)
      << "the appender truncated a foreign file";
  std::filesystem::remove(path);
}

TEST(CacheJournal, WrongVersionIsRejectedWholeAndNeverModified) {
  const std::filesystem::path path = journal_test_path("version");
  std::string bytes(kJournalMagic);
  write_u32_at(bytes.append(4, '\0'), 8, kJournalFormatVersion + 7);
  write_file(path, bytes);

  solve_cache cache;
  const journal_replay_result result = replay_journal(cache, path);
  EXPECT_FALSE(result.replayed);
  EXPECT_EQ(cache.stats().load_rejected, 1u);
  EXPECT_THROW(cache_journal{path}, std::runtime_error);
  EXPECT_EQ(read_file(path), bytes);
  std::filesystem::remove(path);
}

TEST(CacheJournal, ADirectoryWalIsARejectionNamingItNotAnException) {
  const std::filesystem::path dir = journal_test_path("directory");
  std::filesystem::create_directories(dir);
  solve_cache cache;
  cache.store_value("keep", 1.0);

  journal_replay_result result;
  ASSERT_NO_THROW(result = replay_journal(cache, dir));
  EXPECT_FALSE(result.replayed);
  EXPECT_FALSE(result.file_missing);
  EXPECT_NE(result.error.find(dir.string()), std::string::npos) << result.error;
  EXPECT_EQ(cache.stats().load_rejected, 1u);
  EXPECT_EQ(cache.size(), 1u);

  // The appender refuses it with an error that names it, too.
  try {
    cache_journal journal(dir);
    ADD_FAILURE() << "a directory opened as a journal";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(dir.string()), std::string::npos)
        << e.what();
  }

  // Wired together: the snapshot loads, the WAL is a counted rejection,
  // and journaling degrades with the reason surfaced.
  const std::filesystem::path snapshot =
      std::filesystem::temp_directory_path() /
      ("dlm_wal_directory_" + std::to_string(::getpid()) + ".bin");
  const std::filesystem::path wal = cache_journal_path(snapshot);
  std::filesystem::remove(snapshot);
  std::filesystem::create_directories(wal);
  journal_options jopt;
  jopt.enabled = true;
  {
    std::optional<persistent_cache> persist;
    ASSERT_NO_THROW(persist.emplace(snapshot, 0, jopt));
    EXPECT_NE(persist->startup_replay().error.find(wal.string()),
              std::string::npos)
        << persist->startup_replay().error;
    EXPECT_EQ(persist->cache().stats().load_rejected, 1u);
    EXPECT_EQ(persist->journal(), nullptr);
    EXPECT_NE(persist->write_error().find(wal.string()), std::string::npos)
        << persist->write_error();
  }
  std::filesystem::remove(snapshot);
  std::filesystem::remove_all(wal);
  std::filesystem::remove_all(dir);
}

TEST(CacheJournal, TornWriteFaultLatchesAndLeavesAReplayableWal) {
  const std::filesystem::path path = journal_test_path("torn_fault");
  std::filesystem::remove(path);
  {
    cache_journal::options opt;
    opt.torn_write_record = 1;  // tear the second append
    cache_journal journal(path, opt);
    journal.append_trace("trace/a", sample_trace(1.0));
    EXPECT_TRUE(journal.write_error().empty());
    journal.append_value("value/x", 0.1);  // torn: half the bytes land
    EXPECT_EQ(journal.write_error(),
              "fault injection: torn write at record 1");
    EXPECT_EQ(journal.appended_records(), 1u);
    journal.append_value("value/y", 0.2);  // latched: must be a no-op
    EXPECT_EQ(journal.appended_records(), 1u);
  }
  // The half-written record is exactly the shape replay truncates.
  solve_cache cache;
  const journal_replay_result result = replay_journal(cache, path);
  EXPECT_TRUE(result.replayed);
  EXPECT_TRUE(result.torn_tail);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.find_trace("trace/a"), nullptr);
  std::filesystem::remove(path);
}

TEST(CacheJournal, ReplayOverSnapshotThenCompactMatchesSnapshotOnlyBytes) {
  // The compaction contract: (snapshot ∪ WAL) replayed into a cache must
  // serialize to the same bytes as a cache holding all entries directly
  // — and after checkpoint() the snapshot alone must reproduce them.
  const std::filesystem::path snapshot =
      std::filesystem::temp_directory_path() /
      ("dlm_journal_compact_" + std::to_string(::getpid()) + ".bin");
  const std::filesystem::path wal = cache_journal_path(snapshot);
  std::filesystem::remove(snapshot);
  std::filesystem::remove(wal);

  // Half the entries in the snapshot, half in the WAL — seeds matching
  // fill_sample_cache's key→trace assignment exactly.
  solve_cache snapshot_half;
  snapshot_half.store_trace("trace/a", sample_trace(2.0));
  snapshot_half.store_value("value/x", 0.1);
  save_cache(snapshot_half, snapshot);
  {
    cache_journal journal(wal);
    journal.append_trace("trace/b", sample_trace(1.0));
    journal.append_value("value/y", 1.0 / 3.0);
  }

  solve_cache everything;
  fill_sample_cache(everything);
  const std::string want = serialize_cache(everything);

  solve_cache replayed;
  ASSERT_TRUE(load_cache(replayed, snapshot).loaded);
  ASSERT_TRUE(replay_journal(replayed, wal).replayed);
  EXPECT_EQ(serialize_cache(replayed), want)
      << "snapshot+WAL diverged from the direct cache";

  // Checkpoint: snapshot rewritten with everything, WAL reset to header.
  {
    cache_journal journal(wal);
    journal.checkpoint([&] { save_cache(replayed, snapshot); });
    EXPECT_EQ(journal.bytes(), 12u);
  }
  solve_cache compacted;
  ASSERT_TRUE(load_cache(compacted, snapshot).loaded);
  EXPECT_EQ(serialize_cache(compacted), want);
  solve_cache wal_after;
  const journal_replay_result post = replay_journal(wal_after, wal);
  EXPECT_TRUE(post.replayed);
  EXPECT_EQ(wal_after.size(), 0u) << "checkpoint left records in the WAL";
  std::filesystem::remove(snapshot);
  std::filesystem::remove(wal);
}

TEST(CacheJournal, PersistentCacheJournalsEveryInsertAsItHappens) {
  const std::filesystem::path snapshot =
      std::filesystem::temp_directory_path() /
      ("dlm_persist_journal_" + std::to_string(::getpid()) + ".bin");
  const std::filesystem::path wal = cache_journal_path(snapshot);
  std::filesystem::remove(snapshot);
  std::filesystem::remove(wal);

  journal_options jopt;
  jopt.enabled = true;
  {
    persistent_cache persist(snapshot, 0, jopt);
    ASSERT_NE(persist.journal(), nullptr) << persist.write_error();
    persist.cache().store_trace("t", sample_trace(1.0));
    persist.cache().store_value("v", 2.0);
    // The WAL already holds both inserts — before any flush.
    EXPECT_EQ(persist.journal()->appended_records(), 2u);
    solve_cache replayed;
    const journal_replay_result mid = replay_journal(replayed, wal);
    EXPECT_TRUE(mid.replayed);
    EXPECT_EQ(replayed.size(), 2u)
        << "inserts not journaled as they happened";
  }  // destructor checkpoints: snapshot complete, WAL reset
  {
    persistent_cache persist(snapshot, 0, jopt);
    EXPECT_TRUE(persist.startup_load().loaded);
    EXPECT_EQ(persist.startup_load().traces, 1u);
    EXPECT_EQ(persist.startup_load().values, 1u);
    EXPECT_EQ(persist.startup_replay().traces +
                  persist.startup_replay().values,
              0u)
        << "destructor checkpoint left records in the WAL";
    EXPECT_NE(persist.cache().find_trace("t"), nullptr);
  }
  std::filesystem::remove(snapshot);
  std::filesystem::remove(wal);
}

TEST(CacheIo, PersistentCacheLoadsOnConstructionAndSavesOnDestruction) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("dlm_persistent_cache_test_" + std::to_string(::getpid()) + ".bin");
  std::filesystem::remove(path);
  {
    persistent_cache persist(path);
    EXPECT_TRUE(persist.startup_load().file_missing);
    persist.cache().store_trace("t", sample_trace(1.0));
    persist.cache().store_value("v", 2.0);
  }  // destructor saves
  {
    persistent_cache persist(path);
    EXPECT_TRUE(persist.startup_load().loaded);
    EXPECT_EQ(persist.startup_load().traces, 1u);
    EXPECT_EQ(persist.startup_load().values, 1u);
    EXPECT_NE(persist.cache().find_trace("t"), nullptr);
  }
  std::filesystem::remove(path);
}

// --------------------------------------------------- streamed snapshot
//
// save_cache streams the snapshot to its temp file through the same
// writer serialize_cache keeps in memory, hashing each section as it
// passes and patching the section header afterwards.  The file must be
// serialize_cache's bytes exactly: for caches that fit in one write
// block, and for one whose sections span many, so each header is
// patched after it already reached the file.

std::filesystem::path snapshot_test_path(const std::string& tag) {
  return std::filesystem::temp_directory_path() /
         ("dlm_snapshot_test_" + tag + "_" + std::to_string(::getpid()) +
          ".bin");
}

void expect_saved_bytes_are_serialized_bytes(const solve_cache& cache,
                                             const std::string& label) {
  const std::filesystem::path path = snapshot_test_path(label);
  save_cache(cache, path);
  EXPECT_EQ(read_file(path), serialize_cache(cache)) << label;
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp")) << label;
  std::filesystem::remove(path);
}

TEST(CacheIo, SavedFileIsSerializeCacheByteForByte) {
  const solve_cache empty;
  expect_saved_bytes_are_serialized_bytes(empty, "empty");

  solve_cache sample;
  fill_sample_cache(sample);
  expect_saved_bytes_are_serialized_bytes(sample, "sample");

  // A NaN value and a 2-D trace: a non-line domain label riding a dense
  // distances x hours blob.
  model_trace sheet({1, 2, 3, 4, 5, 6}, {2.0, 3.0, 4.0, 5.0, 6.0});
  sheet.domain = "grid2d:1,4";
  for (std::size_t i = 0; i < sheet.distances().size(); ++i)
    for (std::size_t j = 0; j < sheet.times().size(); ++j)
      sheet.predicted(i)[j] = 1.0 / (static_cast<double>(i * 5 + j) + 3.0);
  sheet.effective_dt = 0.02;
  solve_cache odd;
  odd.store_value("value/nan", std::numeric_limits<double>::quiet_NaN());
  odd.store_trace("trace/sheet", sheet);
  expect_saved_bytes_are_serialized_bytes(odd, "nan_and_sheet");

  // Both sections many times the 64 KiB write block.
  solve_cache large;
  for (int i = 0; i < 3000; ++i) {
    large.store_trace("trace/" + std::to_string(i), sample_trace(i));
    large.store_value("value/" + std::string(200, 'k') + std::to_string(i),
                      i / 7.0);
  }
  expect_saved_bytes_are_serialized_bytes(large, "large");
}

TEST(CacheIo, SavesDuringConcurrentStoresHoldEveryEarlierKey) {
  // Four writers store values while this thread saves ten times: every
  // saved file must load, and must hold every key stored before its save
  // began.  Runs under TSan (ctest -L tsan).
  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kMaxPerWriter = 10000;
  const auto key = [](std::size_t writer, std::size_t n) {
    return "writer" + std::to_string(writer) + "/" + std::to_string(n);
  };
  solve_cache cache;
  // Keys 0 .. stored[w] - 1 of writer w are in the cache.
  std::array<std::atomic<std::size_t>, kWriters> stored{};
  std::vector<std::jthread> writers;
  for (std::size_t w = 0; w < kWriters; ++w)
    writers.emplace_back([&, w](const std::stop_token& stop) {
      for (std::size_t n = 0; n < kMaxPerWriter && !stop.stop_requested();
           ++n) {
        cache.store_value(key(w, n), static_cast<double>(n));
        stored[w].store(n + 1, std::memory_order_release);
      }
    });
  for (const std::atomic<std::size_t>& count : stored)
    while (count.load(std::memory_order_acquire) == 0)
      std::this_thread::yield();

  const std::filesystem::path path = snapshot_test_path("concurrent");
  for (int save = 0; save < 10; ++save) {
    std::array<std::size_t, kWriters> before{};
    for (std::size_t w = 0; w < kWriters; ++w)
      before[w] = stored[w].load(std::memory_order_acquire);
    save_cache(cache, path);

    solve_cache loaded;
    const cache_load_result result = load_cache(loaded, path);
    ASSERT_TRUE(result.loaded) << "save " << save << ": " << result.error;
    for (std::size_t w = 0; w < kWriters; ++w)
      for (std::size_t n = 0; n < before[w]; ++n) {
        const std::optional<double> hit = loaded.find_value(key(w, n));
        ASSERT_TRUE(hit.has_value())
            << "save " << save << " lost " << key(w, n);
        EXPECT_EQ(*hit, static_cast<double>(n));
      }
  }
  std::filesystem::remove(path);
}

TEST(CacheIo, ADirectoryPathIsARejectionNamingItNotAnException) {
  const std::filesystem::path dir = snapshot_test_path("directory");
  std::filesystem::create_directories(dir);
  solve_cache cache;
  cache.store_value("keep", 1.0);

  cache_load_result result;
  ASSERT_NO_THROW(result = load_cache(cache, dir));
  EXPECT_FALSE(result.loaded);
  EXPECT_FALSE(result.file_missing);
  EXPECT_NE(result.error.find(dir.string()), std::string::npos) << result.error;
  EXPECT_EQ(cache.stats().load_rejected, 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.find_value("keep"), 1.0);

  // A save could never replace it either, and the startup probe says so.
  const std::string probe = probe_cache_writable(dir);
  EXPECT_NE(probe.find(dir.string()), std::string::npos) << probe;
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------- compact trace shapes
//
// A resident trace keeps its values in one row-major block over interned
// axes.  The shapes that layout could get wrong — no times, no
// distances, a non-line domain label — must keep their bytes through
// every path that carries a trace: the snapshot and the WAL.

/// Three edge shapes, each with busy mantissas and its own dt.
std::vector<std::pair<std::string, model_trace>> edge_traces() {
  model_trace no_times({1, 2, 3, 4, 5, 6}, {});
  no_times.effective_dt = 0.1 + 0.2;
  model_trace no_distances({}, {2.0, 3.0, 4.0, 5.0, 6.0});
  no_distances.effective_dt = 1.0 / 3.0;
  model_trace comm = sample_trace(5.0);
  comm.domain = "comm:3|mix=0.050000000000000003";
  return {{"trace/no_times", no_times},
          {"trace/no_distances", no_distances},
          {"trace/comm", comm}};
}

TEST(CacheIo, EdgeShapedTracesKeepTheirBytesThroughTheFileAndTheWal) {
  const auto edges = edge_traces();
  solve_cache original;
  for (const auto& [key, trace] : edges) original.store_trace(key, trace);
  const std::string bytes = serialize_cache(original);

  solve_cache loaded;
  const cache_load_result result = deserialize_cache(loaded, bytes);
  ASSERT_TRUE(result.loaded) << result.error;
  EXPECT_EQ(result.traces, edges.size());
  for (const auto& [key, trace] : edges) {
    const std::shared_ptr<const model_trace> hit = loaded.find_trace(key);
    ASSERT_NE(hit, nullptr) << key;
    EXPECT_TRUE(traces_bitwise_equal(trace, *hit)) << key;
    EXPECT_EQ(encode_trace_entry(key, *hit), encode_trace_entry(key, trace))
        << key;
  }
  EXPECT_EQ(serialize_cache(loaded), bytes);

  const std::filesystem::path path = journal_test_path("edge_shapes");
  std::filesystem::remove(path);
  {
    cache_journal journal(path);
    for (const auto& [key, trace] : edges) journal.append_trace(key, trace);
    EXPECT_TRUE(journal.write_error().empty()) << journal.write_error();
  }
  solve_cache replayed;
  const journal_replay_result replay = replay_journal(replayed, path);
  EXPECT_TRUE(replay.replayed) << replay.error;
  EXPECT_FALSE(replay.torn_tail) << replay.error;
  for (const auto& [key, trace] : edges) {
    const std::shared_ptr<const model_trace> hit = replayed.find_trace(key);
    ASSERT_NE(hit, nullptr) << key;
    EXPECT_EQ(encode_trace_entry(key, *hit), encode_trace_entry(key, trace))
        << key;
  }
  EXPECT_EQ(serialize_cache(replayed), bytes);
  std::filesystem::remove(path);
}

TEST(CacheIo, AHandBuiltFileWithAZeroTimeTraceLoads) {
  // Built field by field, not by the encoder: two distances, no times,
  // so the predicted blob is empty.
  const auto put_u32 = [](std::string& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  };
  const auto put_u64 = [](std::string& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  };
  std::string traces;
  put_u64(traces, 1);
  const std::string key = "trace/zero_times";
  put_u32(traces, static_cast<std::uint32_t>(key.size()));
  traces += key;
  put_u32(traces, 4);
  traces += "line";
  put_u32(traces, 2);  // distances
  put_u32(traces, 1);
  put_u32(traces, 2);
  put_u32(traces, 0);  // times
  put_u64(traces, std::bit_cast<std::uint64_t>(0.02));
  std::string values;
  put_u64(values, 0);

  std::string bytes(kCacheMagic);
  put_u32(bytes, kCacheFormatVersion);
  put_u32(bytes, 2);
  for (const auto& [tag, payload] :
       {std::pair<std::uint32_t, const std::string*>{1, &traces},
        {2, &values}}) {
    put_u32(bytes, tag);
    put_u64(bytes, payload->size());
    put_u64(bytes, cache_checksum(*payload));
    bytes += *payload;
  }

  solve_cache cache;
  const cache_load_result result = deserialize_cache(cache, bytes);
  ASSERT_TRUE(result.loaded) << result.error;
  const std::shared_ptr<const model_trace> hit = cache.find_trace(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(std::vector<int>(hit->distances().begin(), hit->distances().end()),
            (std::vector<int>{1, 2}));
  EXPECT_TRUE(hit->times().empty());
  EXPECT_TRUE(hit->values().empty());
  EXPECT_EQ(hit->effective_dt, 0.02);
  EXPECT_EQ(serialize_cache(cache), bytes);
}

TEST(CacheIo, LoadedTracesWithEqualAxesShareOneAxesAllocation) {
  solve_cache original;
  fill_sample_cache(original);  // two traces over the same axes
  solve_cache loaded;
  ASSERT_TRUE(deserialize_cache(loaded, serialize_cache(original)).loaded);
  const std::shared_ptr<const model_trace> a = loaded.find_trace("trace/a");
  const std::shared_ptr<const model_trace> b = loaded.find_trace("trace/b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->axes(), b->axes());
  EXPECT_EQ(a->axes(), original.find_trace("trace/a")->axes());
}

}  // namespace
