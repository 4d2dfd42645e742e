#include "campaign/journal.h"

#include <cstdio>
#include <iterator>

#include "campaign/serde.h"

namespace afex {

Journal::LoadResult Journal::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw CampaignError("cannot open journal '" + path + "'");
  }
  // Bulk-read through the stream buffer into a pre-sized string — large
  // journals arrive in a handful of block reads instead of one
  // istreambuf_iterator character at a time.
  std::string contents;
  in.seekg(0, std::ios::end);
  std::streamoff size = in.tellg();
  if (size > 0) {
    in.seekg(0, std::ios::beg);
    contents.resize(static_cast<size_t>(size));
    in.read(contents.data(), size);
    contents.resize(static_cast<size_t>(in.gcount()));
  } else {
    // Non-seekable source (FIFO, process substitution): tellg() fails, so
    // fall back to a plain streamed read.
    in.clear();
    in.seekg(0, std::ios::beg);
    in.clear();
    contents.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  if (in.bad()) {
    throw CampaignError("error reading journal '" + path + "'");
  }

  LoadResult result;
  size_t start = 0;
  bool have_header = false;
  while (start < contents.size()) {
    size_t end = contents.find('\n', start);
    if (end == std::string::npos) {
      // Torn write: the process died mid-line. The line is unrecoverable,
      // but everything before it is intact.
      result.tail_torn = true;
      break;
    }
    // Construct each line in place from the buffer — no intermediate
    // substr temporary per record.
    if (!have_header) {
      result.header.assign(contents, start, end - start);
      have_header = true;
    } else {
      result.records.emplace_back(contents, start, end - start);
    }
    start = end + 1;
  }
  if (!have_header) {
    throw CampaignError("journal '" + path + "' has no complete header line");
  }
  return result;
}

Journal Journal::Create(const std::string& path, const std::string& header) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw CampaignError("cannot create journal '" + path + "'");
  }
  out << header << '\n';
  out.flush();
  if (!out) {
    throw CampaignError("cannot write journal header to '" + path + "'");
  }
  return Journal(path, std::move(out));
}

Journal Journal::Rewrite(const std::string& path, const std::string& header,
                         const std::vector<std::string>& records) {
  std::string temp = path + ".tmp";
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw CampaignError("cannot create journal temp file '" + temp + "'");
    }
    out << header << '\n';
    for (const std::string& line : records) {
      out << line << '\n';
    }
    out.flush();
    if (!out) {
      throw CampaignError("cannot write journal temp file '" + temp + "'");
    }
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    throw CampaignError("cannot replace journal '" + path + "'");
  }
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) {
    throw CampaignError("cannot reopen journal '" + path + "' for append");
  }
  return Journal(path, std::move(out));
}

void Journal::Append(const std::string& line) {
  obs::PhaseTimer append_timer(metrics_, obs::Phase::kJournalAppend);
  out_ << line << '\n';
  append_timer.Finish();
  obs::PhaseTimer flush_timer(metrics_, obs::Phase::kJournalFlush);
  out_.flush();
  flush_timer.Finish();
  if (!out_) {
    throw CampaignError("failed to append to journal '" + path_ + "'");
  }
}

}  // namespace afex
