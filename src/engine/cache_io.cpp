#include "engine/cache_io.h"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <system_error>
#include <utility>
#include <vector>

namespace dlm::engine {
namespace {

constexpr std::uint32_t kTraceSectionTag = 1;
constexpr std::uint32_t kValueSectionTag = 2;
constexpr std::uint32_t kSectionCount = 2;

// ----------------------------------------------------------- LE writing

/// Appends the little-endian bytes of an unsigned integer.
template <class Uint>
void put_le(std::string& out, Uint v) {
  char bytes[sizeof(Uint)];
  for (std::size_t i = 0; i < sizeof(Uint); ++i)
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out.append(bytes, sizeof bytes);
}

void put_u32(std::string& out, std::uint32_t v) { put_le(out, v); }

void put_u64(std::string& out, std::uint64_t v) { put_le(out, v); }

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_i32(std::string& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_string(std::string& out, std::string_view s) {
  if (s.size() > std::numeric_limits<std::uint32_t>::max())
    throw std::runtime_error("cache_io: key too long to serialize");
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ULL;

/// FNV-1a 64 over `bytes`, continuing from `hash`.
std::uint64_t fnv1a(std::uint64_t hash, std::string_view bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;  // FNV-1a 64 prime
  }
  return hash;
}

/// One trace entry (key · domain · distances · times · effective_dt ·
/// predicted blob), appended to `out`.
void append_trace_entry(std::string& out, std::string_view key,
                        const model_trace& trace) {
  put_string(out, key);
  put_string(out, trace.domain);
  put_u32(out, static_cast<std::uint32_t>(trace.distances().size()));
  for (const int d : trace.distances()) put_i32(out, d);
  put_u32(out, static_cast<std::uint32_t>(trace.times().size()));
  for (const double t : trace.times()) put_f64(out, t);
  put_f64(out, trace.effective_dt);
  for (const double v : trace.values()) put_f64(out, v);
}

void append_value_entry(std::string& out, std::string_view key,
                        double value) {
  put_string(out, key);
  put_f64(out, value);
}

/// Writes the snapshot layout front to back — the one writer behind
/// serialize_cache and save_cache.  A section header goes out with a
/// zero length and checksum; the payload is hashed as it passes, and
/// end_section patches both fields.  Without a file every byte stays in
/// the buffer.  With one, the buffer drains to the file a block at a
/// time, so a save holds one block of the snapshot rather than the whole
/// file, and a header that already left is patched by seeking back.
class snapshot_writer {
 public:
  explicit snapshot_writer(std::ofstream* file = nullptr) : file_(file) {
    if (file_ != nullptr) buffer_.reserve(2 * kBlockBytes);
    buffer_.append(kCacheMagic);
    put_u32(buffer_, kCacheFormatVersion);
    put_u32(buffer_, kSectionCount);
  }

  /// Where the entries of the open section are appended.
  [[nodiscard]] std::string& buffer() noexcept { return buffer_; }

  void begin_section(std::uint32_t tag) {
    section_at_ = offset();
    put_u32(buffer_, tag);
    put_u64(buffer_, 0);  // payload bytes, patched by end_section
    put_u64(buffer_, 0);  // checksum, patched by end_section
    payload_at_ = offset();
    hashed_ = buffer_.size();
    hash_ = kFnvOffsetBasis;
  }

  /// Called after each entry: drains the buffer once it holds a block.
  void entry_done() {
    if (file_ != nullptr && buffer_.size() >= kBlockBytes) drain();
  }

  void end_section() {
    hash_pending();
    std::string fields;
    put_u64(fields, offset() - payload_at_);
    put_u64(fields, hash_);
    const std::uint64_t at = section_at_ + 4;  // past the tag
    if (at >= drained_) {
      buffer_.replace(static_cast<std::size_t>(at - drained_), fields.size(),
                      fields);
      return;
    }
    drain();
    file_->seekp(static_cast<std::streamoff>(at));
    file_->write(fields.data(), static_cast<std::streamsize>(fields.size()));
    file_->seekp(0, std::ios::end);
  }

  /// Without a file: the whole snapshot.
  [[nodiscard]] std::string take() { return std::move(buffer_); }

  /// With a file: writes out what the buffer still holds.
  void finish() { drain(); }

 private:
  static constexpr std::size_t kBlockBytes = 64 << 10;

  [[nodiscard]] std::uint64_t offset() const noexcept {
    return drained_ + buffer_.size();
  }

  /// Folds the payload bytes appended since the last call into the hash.
  void hash_pending() {
    hash_ = fnv1a(hash_, std::string_view(buffer_).substr(hashed_));
    hashed_ = buffer_.size();
  }

  void drain() {
    hash_pending();
    file_->write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    drained_ += buffer_.size();
    buffer_.clear();
    hashed_ = 0;
  }

  std::ofstream* file_;
  std::string buffer_;
  std::uint64_t drained_ = 0;  ///< bytes already written to the file
  std::uint64_t section_at_ = 0;
  std::uint64_t payload_at_ = 0;
  std::size_t hashed_ = 0;  ///< buffer bytes already in hash_
  std::uint64_t hash_ = kFnvOffsetBasis;
};

/// Both sections, entries in key order, written straight from the live
/// entries: the sorted view holds the cache's lock shared for the whole
/// walk, so finds continue during a save and inserts wait for it.
void write_snapshot(const solve_cache& cache, snapshot_writer& writer) {
  const solve_cache::sorted_view entries = cache.sorted_entries();
  writer.begin_section(kTraceSectionTag);
  put_u64(writer.buffer(), entries.traces().size());
  for (const solve_cache::trace_ref& entry : entries.traces()) {
    append_trace_entry(writer.buffer(), entry.key, *entry.trace);
    writer.entry_done();
  }
  writer.end_section();
  writer.begin_section(kValueSectionTag);
  put_u64(writer.buffer(), entries.values().size());
  for (const solve_cache::value_ref& entry : entries.values()) {
    append_value_entry(writer.buffer(), entry.key, entry.value);
    writer.entry_done();
  }
  writer.end_section();
}

// ------------------------------------------------------------ LE reader
//
// Every read is bounds checked against the remaining bytes; the first
// failed read latches ok() false and all further reads return zeros, so
// parsing code can stay linear and check ok() at section boundaries.

class reader {
 public:
  explicit reader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }
  [[nodiscard]] bool at_end() const noexcept { return pos_ == bytes_.size(); }

  std::uint32_t get_u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    pos_ += 4;
    return v;
  }

  std::uint64_t get_u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    pos_ += 8;
    return v;
  }

  double get_f64() { return std::bit_cast<double>(get_u64()); }

  std::int32_t get_i32() { return static_cast<std::int32_t>(get_u32()); }

  std::string_view get_bytes(std::size_t n) {
    if (!need(n)) return {};
    const std::string_view v = bytes_.substr(pos_, n);
    pos_ += n;
    return v;
  }

 private:
  bool need(std::size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Parsed-but-not-yet-committed file content: nothing touches the cache
/// until every section verified and parsed cleanly.
struct parsed_file {
  std::vector<std::pair<std::string, model_trace>> traces;
  std::vector<std::pair<std::string, double>> values;
};

/// Parses one trace entry at `r`'s cursor — the shared step of the
/// snapshot section parser and the journal record decoder
/// (decode_trace_entry).  The axes are read into per-thread buffers and
/// interned, so a load allocates only the axes it has not seen.  Returns
/// an error message or empty.
std::string parse_one_trace(reader& r, std::string& key, model_trace& trace) {
  thread_local std::vector<int> distances;
  thread_local std::vector<double> times;
  const std::uint32_t key_len = r.get_u32();
  if (key_len > r.remaining()) return "trace key overruns section";
  key = std::string(r.get_bytes(key_len));
  const std::uint32_t domain_len = r.get_u32();
  if (!r.ok() || domain_len > r.remaining())
    return "trace domain overruns section";
  std::string domain(r.get_bytes(domain_len));
  const std::uint32_t n_dist = r.get_u32();
  if (!r.ok() || n_dist > r.remaining() / 4)
    return "trace distance count overruns section";
  distances.resize(n_dist);
  for (int& d : distances) d = r.get_i32();
  const std::uint32_t n_times = r.get_u32();
  if (!r.ok() || n_times > r.remaining() / 8)
    return "trace time count overruns section";
  times.resize(n_times);
  for (double& t : times) t = r.get_f64();
  const double effective_dt = r.get_f64();
  const std::uint64_t cells =
      static_cast<std::uint64_t>(n_dist) * static_cast<std::uint64_t>(n_times);
  if (!r.ok() || cells > r.remaining() / 8)
    return "trace blob overruns section";
  trace = model_trace(distances, times);
  trace.domain = std::move(domain);
  trace.effective_dt = effective_dt;
  for (double& v : trace.values()) v = r.get_f64();
  if (!r.ok()) return "truncated trace entry";
  return {};
}

std::string parse_one_value(reader& r, std::string& key, double& value) {
  const std::uint32_t key_len = r.get_u32();
  if (key_len > r.remaining()) return "value key overruns section";
  key = std::string(r.get_bytes(key_len));
  value = r.get_f64();
  if (!r.ok()) return "truncated value entry";
  return {};
}

/// Parses the trace section payload.  Returns an error message or empty.
std::string parse_trace_section(std::string_view payload, parsed_file& out) {
  reader r(payload);
  const std::uint64_t count = r.get_u64();
  // A trace entry occupies at least key length + domain length + distance
  // count + time count + effective_dt = 24 bytes; a declared count the
  // remaining bytes cannot possibly hold is rejected before any
  // allocation.
  if (count > r.remaining() / 24)
    return "trace count " + std::to_string(count) +
           " exceeds section capacity";
  out.traces.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string key;
    model_trace trace;
    if (std::string error = parse_one_trace(r, key, trace); !error.empty())
      return error;
    out.traces.emplace_back(std::move(key), std::move(trace));
  }
  if (!r.at_end()) return "trailing bytes in trace section";
  return {};
}

std::string parse_value_section(std::string_view payload, parsed_file& out) {
  reader r(payload);
  const std::uint64_t count = r.get_u64();
  // Minimum value entry: key length + value = 12 bytes.
  if (count > r.remaining() / 12)
    return "value count " + std::to_string(count) +
           " exceeds section capacity";
  out.values.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string key;
    double value = 0.0;
    if (std::string error = parse_one_value(r, key, value); !error.empty())
      return error;
    out.values.emplace_back(std::move(key), value);
  }
  if (!r.at_end()) return "trailing bytes in value section";
  return {};
}

/// Verifies and parses a whole snapshot: header, then each section's
/// checksum before its payload.  Returns an error message or empty; on
/// error `out` may hold a partial parse, which the caller discards.
std::string parse_file(std::string_view bytes, parsed_file& out) {
  reader r(bytes);
  const std::string_view magic = r.get_bytes(kCacheMagic.size());
  if (!r.ok()) return "file shorter than the header";
  if (magic != kCacheMagic) return "bad magic";
  const std::uint32_t version = r.get_u32();
  const std::uint32_t sections = r.get_u32();
  if (!r.ok()) return "file shorter than the header";
  if (version != kCacheFormatVersion)
    return "unsupported format version " + std::to_string(version) +
           " (expected " + std::to_string(kCacheFormatVersion) + ")";
  if (sections != kSectionCount)
    return "unexpected section count " + std::to_string(sections);

  for (const std::uint32_t expected_tag :
       {kTraceSectionTag, kValueSectionTag}) {
    const std::uint32_t tag = r.get_u32();
    const std::uint64_t payload_bytes = r.get_u64();
    const std::uint64_t checksum = r.get_u64();
    if (!r.ok()) return "truncated section header";
    if (tag != expected_tag)
      return "unexpected section tag " + std::to_string(tag);
    if (payload_bytes > r.remaining()) return "section payload overruns file";
    const std::string_view payload =
        r.get_bytes(static_cast<std::size_t>(payload_bytes));
    if (cache_checksum(payload) != checksum)
      return "section checksum mismatch";
    std::string error = tag == kTraceSectionTag
                            ? parse_trace_section(payload, out)
                            : parse_value_section(payload, out);
    if (!error.empty()) return error;
  }
  if (!r.at_end()) return "trailing bytes after last section";
  return {};
}

cache_load_result reject(solve_cache& cache, std::string error) {
  cache.count_load_rejected();
  cache_load_result result;
  result.error = std::move(error);
  return result;
}

}  // namespace

std::uint64_t cache_checksum(std::string_view bytes) {
  return fnv1a(kFnvOffsetBasis, bytes);
}

std::string encode_trace_entry(std::string_view key,
                               const model_trace& trace) {
  std::string out;
  append_trace_entry(out, key, trace);
  return out;
}

std::string encode_value_entry(std::string_view key, double value) {
  std::string out;
  append_value_entry(out, key, value);
  return out;
}

std::string decode_trace_entry(std::string_view payload, std::string& key,
                               model_trace& trace) {
  reader r(payload);
  trace = model_trace{};
  if (std::string error = parse_one_trace(r, key, trace); !error.empty())
    return error;
  if (!r.at_end()) return "trailing bytes after trace entry";
  return {};
}

std::string decode_value_entry(std::string_view payload, std::string& key,
                               double& value) {
  reader r(payload);
  if (std::string error = parse_one_value(r, key, value); !error.empty())
    return error;
  if (!r.at_end()) return "trailing bytes after value entry";
  return {};
}

cache_file_read read_cache_file(const std::filesystem::path& path) {
  cache_file_read out;
  std::error_code ec;
  const std::filesystem::file_status status =
      std::filesystem::status(path, ec);
  if (status.type() == std::filesystem::file_type::not_found) {
    out.missing = true;
    return out;
  }
  // Only a regular file has a size to read up front: a directory opens
  // as a stream but fails its first read, and tellg() reports garbage.
  if (!std::filesystem::is_regular_file(status)) {
    out.error = "cache path '" + path.string() + "' is not a regular file";
    return out;
  }
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::ifstream in(path, std::ios::binary);
  if (!ec && in) {
    out.bytes.resize(static_cast<std::size_t>(size));
    if (in.read(out.bytes.data(), static_cast<std::streamsize>(size)))
      return out;
  }
  out.bytes.clear();
  out.error = "read of '" + path.string() + "' failed";
  return out;
}

std::string serialize_cache(const solve_cache& cache) {
  snapshot_writer writer;
  write_snapshot(cache, writer);
  return writer.take();
}

cache_load_result deserialize_cache(solve_cache& cache,
                                    std::string_view bytes) {
  parsed_file parsed;
  if (std::string error = parse_file(bytes, parsed); !error.empty())
    return reject(cache, std::move(error));

  // Whole file verified: commit.  Everything before this line must not
  // have touched the cache.
  cache_load_result result;
  result.loaded = true;
  result.traces = parsed.traces.size();
  result.values = parsed.values.size();
  for (auto& [key, trace] : parsed.traces)
    cache.import_trace(std::move(key),
                       std::make_shared<const model_trace>(std::move(trace)));
  for (auto& [key, value] : parsed.values)
    cache.import_value(std::move(key), value);
  return result;
}

void save_cache(const solve_cache& cache, const std::filesystem::path& path) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  std::error_code ec;
  try {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out)
      throw std::runtime_error("cache_io: cannot open '" + tmp.string() +
                               "' for writing");
    snapshot_writer writer(&out);
    write_snapshot(cache, writer);
    writer.finish();
    out.flush();
    if (!out)
      throw std::runtime_error("cache_io: write to '" + tmp.string() +
                               "' failed");
  } catch (...) {
    std::filesystem::remove(tmp, ec);
    throw;
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    throw std::runtime_error("cache_io: cannot move cache into place at '" +
                             path.string() + "'");
  }
}

cache_load_result load_cache(solve_cache& cache,
                             const std::filesystem::path& path) {
  cache_file_read file = read_cache_file(path);
  if (file.missing) {
    // A missing file is a normal cold start, not a corrupt cache.
    cache_load_result result;
    result.file_missing = true;
    return result;
  }
  if (!file.error.empty()) return reject(cache, std::move(file.error));
  return deserialize_cache(cache, file.bytes);
}

std::string probe_cache_writable(const std::filesystem::path& path) {
  // An existing path that is not a regular file (a directory, say) can
  // neither be loaded nor replaced by the rename that ends a save.
  std::error_code ec;
  const std::filesystem::file_status status =
      std::filesystem::status(path, ec);
  if (std::filesystem::exists(status) &&
      !std::filesystem::is_regular_file(status))
    return "cache file '" + path.string() + "' is not a regular file";
  // Probe the exact file save_cache will write (the ".tmp" sibling) so a
  // pass here means the later atomic save can at least open its target.
  const std::filesystem::path tmp = path.string() + ".tmp";
  const bool existed = std::filesystem::exists(tmp, ec);
  {
    // Append mode: an existing .tmp (a concurrent writer's in-flight
    // save) is left intact, not truncated.
    std::ofstream out(tmp, std::ios::binary | std::ios::app);
    if (!out)
      return "cache file '" + path.string() + "' is not writable (cannot "
             "open '" + tmp.string() + "')";
  }
  if (!existed) std::filesystem::remove(tmp, ec);
  return {};
}

cache_merge_result merge_cache_files(
    solve_cache& into, std::span<const std::filesystem::path> paths) {
  // Read, verify and parse every input first: any missing or corrupt
  // file aborts the whole merge before `into` is touched, mirroring the
  // loader's own all-or-nothing contract.
  std::vector<parsed_file> inputs(paths.size());
  cache_merge_result result;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const std::string input =
        "merge_cache_files: input '" + paths[i].string() + "'";
    cache_file_read file = read_cache_file(paths[i]);
    if (file.missing) throw std::runtime_error(input + " does not exist");
    const std::string error = file.error.empty()
                                  ? parse_file(file.bytes, inputs[i])
                                  : std::move(file.error);
    if (!error.empty())
      throw std::runtime_error(input + " rejected: " + error);
    cache_load_result load;
    load.loaded = true;
    load.traces = inputs[i].traces.size();
    load.values = inputs[i].values.size();
    result.loads.push_back(std::move(load));
  }

  // Then merge the parsed entries in input order, each file's keys in
  // the sorted order they were written in.
  const auto tally = [&result](solve_cache::merge_outcome outcome,
                               std::size_t& merged) {
    switch (outcome) {
      case solve_cache::merge_outcome::inserted: ++merged; break;
      case solve_cache::merge_outcome::duplicate: ++result.duplicates; break;
      case solve_cache::merge_outcome::conflict: ++result.conflicts; break;
    }
  };
  for (parsed_file& input : inputs) {
    for (auto& [key, trace] : input.traces)
      tally(into.merge_trace(std::move(key),
                             std::make_shared<const model_trace>(
                                 std::move(trace))),
            result.merged_traces);
    for (auto& [key, value] : input.values)
      tally(into.merge_value(std::move(key), value), result.merged_values);
  }
  return result;
}

std::filesystem::path cache_journal_path(
    const std::filesystem::path& snapshot_path) {
  return snapshot_path.string() + ".wal";
}

persistent_cache::persistent_cache(std::filesystem::path path,
                                   std::size_t max_entries,
                                   journal_options journal)
    : path_(std::move(path)),
      cache_(max_entries),
      journal_options_(journal) {
  load_ = load_cache(cache_, path_);
  write_error_ = probe_cache_writable(path_);
  if (!write_error_.empty())
    std::fprintf(stderr,
                 "persistent_cache: %s — the save-on-exit will fail\n",
                 write_error_.c_str());
  if (!journal_options_.enabled) return;

  // Snapshot first, then the WAL on top: records that made it into a
  // snapshot before a crash replay as benign first-insert-wins
  // duplicates.
  const std::filesystem::path wal = cache_journal_path(path_);
  replay_ = replay_journal(cache_, wal);
  try {
    cache_journal::options jopt;
    jopt.fsync_each = journal_options_.fsync_each;
    jopt.torn_write_record = journal_options_.torn_write_record;
    journal_ = std::make_unique<cache_journal>(wal, jopt);
  } catch (const std::exception& e) {
    // A journal that cannot open degrades to the plain save-on-exit
    // wrapper — surfaced, not fatal.
    if (write_error_.empty()) write_error_ = e.what();
    std::fprintf(stderr, "persistent_cache: %s — journaling disabled\n",
                 e.what());
    return;
  }
  // Observe every winning insert from here on.  The observer runs
  // outside the cache mutex (see solve_cache::set_write_observer), so
  // the auto-checkpoint below may serialize the cache safely.
  cache_journal* jrnl = journal_.get();
  const std::uint64_t compact_bytes = journal_options_.compact_bytes;
  solve_cache* cache = &cache_;
  const std::filesystem::path snapshot = path_;
  cache_.set_write_observer([jrnl, compact_bytes, cache, snapshot](
                                const std::string& key,
                                const model_trace* trace,
                                const double* value) {
    if (trace != nullptr) jrnl->append_trace(key, *trace);
    if (value != nullptr) jrnl->append_value(key, *value);
    if (compact_bytes != 0 && jrnl->bytes() > compact_bytes &&
        jrnl->write_error().empty()) {
      try {
        jrnl->checkpoint([cache, &snapshot] { save_cache(*cache, snapshot); });
      } catch (const std::exception& e) {
        std::fprintf(stderr,
                     "persistent_cache: auto-checkpoint of '%s' failed: %s\n",
                     snapshot.string().c_str(), e.what());
      }
    }
  });
}

void persistent_cache::flush() {
  if (journal_ != nullptr) {
    journal_->checkpoint([this] { save_cache(cache_, path_); });
    return;
  }
  save_cache(cache_, path_);
}

persistent_cache::~persistent_cache() {
  try {
    flush();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "persistent_cache: save to '%s' failed: %s\n",
                 path_.string().c_str(), e.what());
  }
  // The observer holds the raw journal pointer; drop it before the
  // journal member destructs.
  cache_.set_write_observer({});
}

}  // namespace dlm::engine
