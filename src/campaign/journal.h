// Append-only, crash-tolerant line journal — the durability primitive of
// the campaign store. One header line identifies the campaign; every
// subsequent line is one record, written and flushed to the OS before the
// next test starts, so a killed process loses at most the line being
// written. Loading tolerates exactly that failure mode: a final line with
// no terminating newline is dropped as a torn write. (Durability is
// against process death; no per-record fsync is issued, so power loss may
// additionally lose whatever the kernel had not yet written back.)
#ifndef AFEX_CAMPAIGN_JOURNAL_H_
#define AFEX_CAMPAIGN_JOURNAL_H_

#include <fstream>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace afex {

class Journal {
 public:
  struct LoadResult {
    std::string header;                 // first line, without the newline
    std::vector<std::string> records;   // complete lines after the header
    bool tail_torn = false;             // final line lacked '\n' and was dropped
  };

  // Reads a journal; throws CampaignError when the file is unreadable or
  // has no complete header line.
  static LoadResult Load(const std::string& path);

  // Creates (or truncates) a journal with the given header, open for
  // appending. Throws CampaignError on I/O failure.
  static Journal Create(const std::string& path, const std::string& header);

  // Atomically replaces the journal with header + records (write to a
  // sibling temp file, then rename) and returns it open for appending.
  // Used on resume to drop a torn tail or an incomplete parallel round
  // before new records are appended after them. Throws on I/O failure.
  static Journal Rewrite(const std::string& path, const std::string& header,
                         const std::vector<std::string>& records);

  Journal() = default;
  Journal(Journal&&) = default;
  Journal& operator=(Journal&&) = default;

  bool is_open() const { return out_.is_open(); }
  const std::string& path() const { return path_; }

  // Appends one line and flushes it to the OS. Throws on I/O failure —
  // a campaign must not keep burning tests it cannot record.
  void Append(const std::string& line);

  // Telemetry: times the serialize+write (journal.append) and the flush
  // (journal.flush) separately; each phase's sample count is the record
  // count. Null detaches. Survives move-assignment of the Journal itself
  // only if re-applied — CampaignStore handles that.
  void set_metrics_sink(obs::MetricsSink* sink) { metrics_ = sink; }

 private:
  Journal(std::string path, std::ofstream out)
      : path_(std::move(path)), out_(std::move(out)) {}

  std::string path_;
  std::ofstream out_;
  obs::MetricsSink* metrics_ = nullptr;
};

}  // namespace afex

#endif  // AFEX_CAMPAIGN_JOURNAL_H_
