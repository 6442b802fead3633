// Write-ahead journal for campaign execution.
//
// An append-only file of checksummed records, one per completed run, written
// by the campaign executor as results arrive. Re-launching the same campaign
// loads the journal and skips every run whose record is intact, so an
// interrupted sweep (SIGKILL, power loss, OOM-killed supervisor) resumes
// losslessly. Records are finalized atomically from the reader's point of
// view: a record counts only if its marker, length, checksum and full payload
// are all present, so a torn trailing write is detected, discarded, and
// truncated away before new records are appended.
//
// File layout (all integers little-endian):
//   header:  "DAVJRNL\x01" | u32 version | u64 campaign fingerprint
//   record:  u32 marker | u64 key | u32 payload_len | u64 fnv1a64(payload)
//            | payload bytes
//
// The fingerprint binds a journal to one campaign configuration (seed +
// scale); loading a journal written by a different campaign is an error, not
// a silent replay of stale results.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

namespace dav {

inline constexpr std::uint32_t kJournalVersion = 1;

/// Everything recovered from an existing journal file.
struct JournalLoad {
  /// Intact records, keyed by run digest. A later record for the same key
  /// supersedes an earlier one (a retried run journals once, so duplicates
  /// only arise from identical configs — whose payloads are identical too).
  std::map<std::uint64_t, std::string> records;
  std::uint64_t valid_bytes = 0;  ///< offset one past the last intact record
  std::uint64_t torn_bytes = 0;   ///< trailing bytes discarded as torn
  bool existed = false;           ///< the file was present on disk
};

/// Parse the journal at `path`. A missing file yields an empty load (resume
/// of a campaign that never started is a fresh start). Throws
/// std::runtime_error when the file exists but is not a journal, has an
/// unsupported version, or was written by a different campaign
/// (`fingerprint` mismatch).
JournalLoad load_journal(const std::string& path, std::uint64_t fingerprint);

/// Appender. Opening with the JournalLoad from load_journal() truncates the
/// torn tail (if any) so the file ends on a record boundary, then appends.
/// Every append is flushed to the OS (and fsync'd where available) before
/// returning — a completed run survives any subsequent crash of the
/// supervisor.
class JournalWriter {
 public:
  JournalWriter() = default;  ///< disabled writer; append() is an error
  JournalWriter(const std::string& path, std::uint64_t fingerprint,
                const JournalLoad& load);
  ~JournalWriter();

  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter& operator=(JournalWriter&& other) noexcept;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  bool enabled() const { return file_ != nullptr; }

  /// Append one finalized record. Throws std::runtime_error (with the path)
  /// on any write failure, and if the writer is disabled.
  void append(std::uint64_t key, const std::string& payload);

  void close();

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
};

}  // namespace dav
