#include "campaign/journal.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define DAV_JOURNAL_POSIX 1
#include <fcntl.h>
#include <unistd.h>
#endif

#include "campaign/serialize.h"
#include "util/bits.h"

namespace dav {

namespace {

constexpr char kMagic[8] = {'D', 'A', 'V', 'J', 'R', 'N', 'L', '\x01'};
constexpr std::uint32_t kRecordMarker = 0x52564144u;  // "DAVR" little-endian
constexpr std::uint64_t kHeaderBytes = 8 + 4 + 8;

[[noreturn]] void io_error(const std::string& what, const std::string& path) {
  throw std::runtime_error("journal: " + what + " " + path + ": " +
                           std::strerror(errno));
}

std::string header_bytes(std::uint64_t fingerprint) {
  ByteWriter w;
  w.raw(std::string(kMagic, sizeof(kMagic)));
  w.u32(kJournalVersion);
  w.u64(fingerprint);
  return w.take();
}

/// Truncate `path` to `size` bytes, dropping a torn tail.
void truncate_file(const std::string& path, std::uint64_t size) {
#if DAV_JOURNAL_POSIX
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    io_error("cannot truncate torn tail of", path);
  }
#else
  // Portable fallback: rewrite the valid prefix and swap it into place.
  std::ifstream in(path, std::ios::binary);
  if (!in) io_error("cannot reopen", path);
  std::string keep(static_cast<std::size_t>(size), '\0');
  in.read(keep.data(), static_cast<std::streamsize>(size));
  if (in.gcount() != static_cast<std::streamsize>(size)) {
    io_error("cannot reread valid prefix of", path);
  }
  in.close();
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out.write(keep.data(), static_cast<std::streamsize>(size)).flush()) {
    io_error("cannot rewrite", tmp);
  }
  out.close();
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    io_error("cannot swap truncated journal into", path);
  }
#endif
}

/// fsync the directory containing `path`, making a file creation in it
/// durable (fsync of the file itself only persists the file's bytes, not the
/// directory entry pointing at them). No-op on non-POSIX hosts; I/O errors
/// are swallowed (the data writes already succeeded, and EINVAL is normal on
/// filesystems that reject directory fsync).
void fsync_parent_dir(const std::string& path) {
#if DAV_JOURNAL_POSIX
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);  // best effort: some filesystems reject directory fsync
  ::close(fd);
#else
  (void)path;
#endif
}

}  // namespace

JournalLoad load_journal(const std::string& path, std::uint64_t fingerprint) {
  JournalLoad load;
  std::ifstream in(path, std::ios::binary);
  if (!in) return load;  // missing journal: fresh start
  load.existed = true;
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string bytes = ss.str();

  if (bytes.size() < kHeaderBytes ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("journal: " + path +
                             " exists but is not a campaign journal");
  }
  ByteReader r(bytes.data() + sizeof(kMagic), bytes.size() - sizeof(kMagic));
  const std::uint32_t version = r.u32();
  const std::uint64_t file_fingerprint = r.u64();
  if (version != kJournalVersion) {
    throw std::runtime_error("journal: " + path + " has version " +
                             std::to_string(version) + ", expected " +
                             std::to_string(kJournalVersion));
  }
  if (file_fingerprint != fingerprint) {
    throw std::runtime_error(
        "journal: " + path +
        " was written by a different campaign configuration "
        "(fingerprint mismatch); delete it or point DAV_JOURNAL elsewhere");
  }

  load.valid_bytes = kHeaderBytes;
  // A torn or corrupt record ends the scan: everything after the last intact
  // record is discarded and re-executed. Sequential scan, no resync — a
  // corrupt middle record invalidates its successors too (their provenance
  // is unknowable once framing is lost).
  try {
    while (!r.done()) {
      if (r.u32() != kRecordMarker) break;
      const std::uint64_t key = r.u64();
      const std::uint32_t payload_len = r.u32();
      const std::uint64_t checksum = r.u64();
      std::string payload = r.raw(payload_len);
      if (fnv1a64(payload.data(), payload.size()) != checksum) break;
      load.records[key] = std::move(payload);
      load.valid_bytes = bytes.size() - r.remaining();
    }
  } catch (const std::runtime_error&) {
    // Truncated record: the torn tail of an interrupted append.
  }
  load.torn_bytes = bytes.size() - load.valid_bytes;
  return load;
}

JournalWriter::JournalWriter(const std::string& path,
                             std::uint64_t fingerprint,
                             const JournalLoad& load)
    : path_(path) {
  if (load.existed && load.torn_bytes > 0) {
    truncate_file(path, load.valid_bytes);
  }
  file_ = std::fopen(path.c_str(), load.existed ? "ab" : "wb");
  if (file_ == nullptr) io_error("cannot open", path);
  if (!load.existed) {
    const std::string header = header_bytes(fingerprint);
    if (std::fwrite(header.data(), 1, header.size(), file_) != header.size() ||
        std::fflush(file_) != 0) {
      io_error("cannot write header to", path);
    }
#if DAV_JOURNAL_POSIX
    if (::fsync(::fileno(file_)) != 0) io_error("cannot fsync", path);
#endif
    // Persist the directory entry too: fsync of the file alone leaves a
    // freshly created journal unreachable after power loss.
    fsync_parent_dir(path);
  }
}

JournalWriter::~JournalWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : file_(other.file_), path_(std::move(other.path_)) {
  other.file_ = nullptr;
}

JournalWriter& JournalWriter::operator=(JournalWriter&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    file_ = other.file_;
    path_ = std::move(other.path_);
    other.file_ = nullptr;
  }
  return *this;
}

void JournalWriter::append(std::uint64_t key, const std::string& payload) {
  if (file_ == nullptr) {
    throw std::runtime_error("journal: append on a disabled writer");
  }
  ByteWriter w;
  w.u32(kRecordMarker);
  w.u64(key);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u64(fnv1a64(payload.data(), payload.size()));
  w.raw(payload);
  const std::string& record = w.bytes();
  if (std::fwrite(record.data(), 1, record.size(), file_) != record.size() ||
      std::fflush(file_) != 0) {
    io_error("cannot append record to", path_);
  }
#if DAV_JOURNAL_POSIX
  // Durability past the OS page cache; a SIGKILL'd supervisor only needs the
  // fflush above, fsync additionally covers power loss.
  if (::fsync(::fileno(file_)) != 0) io_error("cannot fsync", path_);
#endif
}

void JournalWriter::close() {
  if (file_ == nullptr) return;
  const int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) io_error("cannot close", path_);
}

}  // namespace dav
