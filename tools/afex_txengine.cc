// afex_txengine: a small WAL + page-store transaction engine — the
// crash-recovery target for --backend=real storage-failure campaigns. Where
// afex_walutil exercises the errno fault classes, this target exists for
// the mode axis (short_write / drop_sync / kill_at / crash_after_rename)
// and the two-phase crash→recover→verify flow: the harness runs
// `workload <test-id>` under the interposer, then `recover` and `verify`
// in the same sandbox without it.
//
// On-disk state (all in the current working directory):
//  * wal.log    — redo log, O_APPEND raw fds, one text record per write():
//                 "w <txid> <page> <byte> <lsn>" intents, "c <txid> <lsn>"
//                 commits. Torn tails are expected after a crash.
//  * pages.db   — kNumPages fixed 256-byte pages: a 16-byte header (magic,
//                 page id, LSN, FNV-1a payload checksum) + 240 payload
//                 bytes, written in place via lseek(SEEK_SET) + write.
//  * meta.chk   — checkpoint LSN, replaced atomically via meta.tmp+rename.
//  * oracle.txt — ground truth: one "commit <txid>" line appended (stdio
//                 fwrite + fflush, checked) after the engine acknowledges a
//                 commit as durable. The verifier holds the engine to it.
//
// Like its models (minidb, walutil) the engine carries deliberately
// imperfect recovery — the planted bugs the campaign should find:
//
//  * durability hole: every third transaction skips the commit fsync, so a
//    crash before the next sync loses an acknowledged commit — the
//    verifier reports "lost committed txn".
//  * torn-page blindness: recovery only checksums pages at or below the
//    checkpoint LSN; a torn page whose header LSN looks current sails
//    through — the verifier reports "torn page".
//  * post-commit divergence: WAL redo skips odd page ids, so a crash
//    between commit and page apply leaves those pages stale — the verifier
//    reports "page ... diverges".
//
// On top of that, the engine never checks write()/fsync()/rename() return
// values on its hot path (the classic ignored-short-write pattern), so the
// errno fault classes find lost log records here too.
//
// Deliberately plain C-style code with fixed buffers, like walutil: call
// ordinals seen by the interposer stay stable properties of the scenario.
// Built with sanitizers off so LD_PRELOAD works in every CI preset. No
// persistent hook: under --exec-mode=persistent each test runs in its own
// forked server child, which exits after the one test, a tested path.
#include <errno.h>
#include <fcntl.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/stat.h>
#include <unistd.h>

namespace {

constexpr int kNumPages = 8;
constexpr int kPageSize = 256;
constexpr int kHeaderSize = 16;
constexpr int kPayloadSize = kPageSize - kHeaderSize;
constexpr int kTxnsPerTest = 6;
constexpr int kCheckpointEvery = 4;
constexpr unsigned kPageMagic = 0x54585047u;  // "TXPG"

void Fail(const char* what) {
  fprintf(stderr, "txengine: %s failed: errno=%d\n", what, errno);
  exit(1);
}

unsigned Fnv1a(const unsigned char* data, int len) {
  unsigned h = 2166136261u;
  for (int i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 16777619u;
  }
  return h;
}

void PutU32(unsigned char* p, unsigned v) { memcpy(p, &v, sizeof(v)); }

unsigned GetU32(const unsigned char* p) {
  unsigned v;
  memcpy(&v, p, sizeof(v));
  return v;
}

// Fills `page` with a fully checksummed page image.
void BuildPage(unsigned char* page, unsigned page_id, unsigned lsn, unsigned char byte) {
  memset(page + kHeaderSize, byte, kPayloadSize);
  PutU32(page + 0, kPageMagic);
  PutU32(page + 4, page_id);
  PutU32(page + 8, lsn);
  PutU32(page + 12, Fnv1a(page + kHeaderSize, kPayloadSize));
}

// The engine's original sin, shared by every storage path in the workload:
// write() results are never checked, so short and failed writes (and the
// faults injecting them) go unnoticed until recovery or the verifier.
void UncheckedWrite(int fd, const void* buf, size_t len) {
  ssize_t ignored = write(fd, buf, len);
  (void)ignored;
}

// ---- WAL parsing (shared by recover and verify) ----------------------------

struct WalRecord {
  int commit;  // 1 = "c" record, 0 = "w" record
  int txid;
  unsigned page;
  unsigned byte;
  unsigned lsn;
};

constexpr int kMaxWalRecords = 256;

// Parses wal.log into records, in file order. Malformed lines — the torn
// tails and spliced records a crashed or short-written log leaves behind —
// are skipped, exactly as recovery must tolerate them.
int LoadWal(WalRecord* recs, int cap) {
  FILE* wal = fopen("wal.log", "r");
  if (wal == nullptr) {
    return 0;  // no log yet (crash before the first append)
  }
  char line[128];
  int count = 0;
  while (fgets(line, sizeof(line), wal) != nullptr) {
    WalRecord r;
    memset(&r, 0, sizeof(r));
    if (sscanf(line, "w %d %u %u %u", &r.txid, &r.page, &r.byte, &r.lsn) == 4 &&
        r.page < static_cast<unsigned>(kNumPages) && r.byte <= 0xff) {
      r.commit = 0;
    } else if (sscanf(line, "c %d %u", &r.txid, &r.lsn) == 2) {
      r.commit = 1;
    } else {
      continue;  // torn record
    }
    if (count < cap) {
      recs[count++] = r;
    }
  }
  fclose(wal);
  return count;
}

int TxnCommitted(const WalRecord* recs, int count, int txid) {
  for (int i = 0; i < count; ++i) {
    if (recs[i].commit && recs[i].txid == txid) {
      return 1;
    }
  }
  return 0;
}

// ---- workload --------------------------------------------------------------

// A checkpoint claims everything up to `lsn` is durable in pages.db: flush
// the pages, then atomically replace meta.chk. The flush and rename results
// are ignored like everything else on the workload path.
void Checkpoint(int pages_fd, unsigned lsn) {
  (void)fsync(pages_fd);
  int fd = open("meta.tmp", O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    Fail("meta open");
  }
  char line[32];
  int len = snprintf(line, sizeof(line), "ckpt %u\n", lsn);
  UncheckedWrite(fd, line, static_cast<size_t>(len));
  (void)fdatasync(fd);
  if (close(fd) != 0) {
    Fail("meta close");
  }
  (void)rename("meta.tmp", "meta.chk");
}

int RunWorkload(int test_id) {
  int pages_fd = open("pages.db", O_RDWR | O_CREAT, 0644);
  if (pages_fd < 0) {
    Fail("pages open");
  }
  struct stat st;
  if (fstat(pages_fd, &st) != 0) {
    Fail("pages stat");
  }
  if (st.st_size < static_cast<off_t>(kNumPages * kPageSize)) {
    unsigned char page[kPageSize];
    for (int i = 0; i < kNumPages; ++i) {
      BuildPage(page, static_cast<unsigned>(i), 0, 0);
      if (lseek(pages_fd, i * kPageSize, SEEK_SET) < 0) {
        Fail("pages seek");
      }
      UncheckedWrite(pages_fd, page, kPageSize);
    }
  }
  int wal_fd = open("wal.log", O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (wal_fd < 0) {
    Fail("wal open");
  }
  FILE* oracle = fopen("oracle.txt", "a");
  if (oracle == nullptr) {
    Fail("oracle open");
  }

  unsigned lsn = 0;
  int base = test_id * 16;
  for (int j = 1; j <= kTxnsPerTest; ++j) {
    int txid = base + j;
    unsigned pages[2] = {static_cast<unsigned>(txid % kNumPages),
                         static_cast<unsigned>((txid + 3) % kNumPages)};
    unsigned char bytes[2];
    unsigned wlsn[2];
    char line[64];
    for (int k = 0; k < 2; ++k) {
      wlsn[k] = ++lsn;
      bytes[k] = static_cast<unsigned char>((txid * 7 + static_cast<int>(pages[k])) & 0xff);
      int len = snprintf(line, sizeof(line), "w %d %u %u %u\n", txid, pages[k], bytes[k],
                         wlsn[k]);
      UncheckedWrite(wal_fd, line, static_cast<size_t>(len));
    }
    unsigned commit_lsn = ++lsn;
    int len = snprintf(line, sizeof(line), "c %d %u\n", txid, commit_lsn);
    UncheckedWrite(wal_fd, line, static_cast<size_t>(len));
    // Planted bug 1 (durability hole): every third transaction trusts the
    // OS to get the log out "soon" and skips the commit fsync. A crash
    // before the next sync loses a commit the oracle line below already
    // acknowledged to the client.
    if (txid % 3 != 0) {
      (void)fsync(wal_fd);
    }
    len = snprintf(line, sizeof(line), "commit %d\n", txid);
    if (fwrite(line, 1, static_cast<size_t>(len), oracle) != static_cast<size_t>(len)) {
      Fail("oracle write");
    }
    if (fflush(oracle) != 0) {
      Fail("oracle flush");
    }
    // Apply the committed writes to the page store, in place.
    unsigned char page[kPageSize];
    for (int k = 0; k < 2; ++k) {
      BuildPage(page, pages[k], wlsn[k], bytes[k]);
      if (lseek(pages_fd, static_cast<off_t>(pages[k]) * kPageSize, SEEK_SET) < 0) {
        Fail("pages seek");
      }
      UncheckedWrite(pages_fd, page, kPageSize);
    }
    if (j % kCheckpointEvery == 0) {
      Checkpoint(pages_fd, lsn);
    }
  }
  if (close(wal_fd) != 0) {
    Fail("wal close");
  }
  if (close(pages_fd) != 0) {
    Fail("pages close");
  }
  if (fclose(oracle) != 0) {
    Fail("oracle close");
  }
  printf("workload ok: %d txns, lsn %u\n", kTxnsPerTest, lsn);
  return 0;
}

// ---- recovery --------------------------------------------------------------

int RunRecover() {
  // Checkpoint LSN; a missing or torn meta.chk conservatively reads as 0
  // (redo everything).
  unsigned ckpt_lsn = 0;
  FILE* meta = fopen("meta.chk", "r");
  if (meta != nullptr) {
    if (fscanf(meta, "ckpt %u", &ckpt_lsn) != 1) {
      ckpt_lsn = 0;
    }
    fclose(meta);
  }

  int pages_fd = open("pages.db", O_RDWR | O_CREAT, 0644);
  if (pages_fd < 0) {
    Fail("pages open");
  }
  static unsigned char pages[kNumPages][kPageSize];
  int dirty[kNumPages] = {0};
  for (int i = 0; i < kNumPages; ++i) {
    ssize_t n = pread(pages_fd, pages[i], kPageSize, static_cast<off_t>(i) * kPageSize);
    if (n < 0) {
      Fail("pages read");
    }
    if (n < kPageSize || GetU32(pages[i]) != kPageMagic) {
      // Short or never-written page (crash during initialization): rebuild
      // it as a fresh zero page and let redo fill it back in.
      BuildPage(pages[i], static_cast<unsigned>(i), 0, 0);
      dirty[i] = 1;
      continue;
    }
    unsigned page_lsn = GetU32(pages[i] + 8);
    if (page_lsn <= ckpt_lsn) {
      if (GetU32(pages[i] + 12) != Fnv1a(pages[i] + kHeaderSize, kPayloadSize)) {
        // Below the checkpoint there is no WAL to rebuild from: genuinely
        // unrecoverable, refuse to come up.
        fprintf(stderr, "txengine-recover: unrecoverable torn page %d below checkpoint %u\n",
                i, ckpt_lsn);
        return 1;
      }
    }
    // Planted bug 2 (torn-page blindness): a page whose header LSN is past
    // the checkpoint "must" have been written this epoch, so its checksum
    // is not validated — which is exactly the page a torn write produces:
    // fresh header, stale payload.
  }

  static WalRecord recs[kMaxWalRecords];
  int count = LoadWal(recs, kMaxWalRecords);
  unsigned max_lsn = ckpt_lsn;
  for (int i = 0; i < count; ++i) {
    if (recs[i].lsn > max_lsn) {
      max_lsn = recs[i].lsn;
    }
    if (recs[i].commit || !TxnCommitted(recs, count, recs[i].txid)) {
      continue;
    }
    // Planted bug 3 (post-commit divergence): odd pages "live in the
    // overlay extent the checkpoint already flushed", so redo skips them.
    // It never flushed anything of the sort; a crash between commit and
    // page apply leaves every odd page stale.
    if (recs[i].page % 2 != 0) {
      continue;
    }
    unsigned page_lsn = GetU32(pages[recs[i].page] + 8);
    if (recs[i].lsn <= page_lsn) {
      continue;  // page already reflects this record
    }
    BuildPage(pages[recs[i].page], recs[i].page, recs[i].lsn,
              static_cast<unsigned char>(recs[i].byte));
    dirty[recs[i].page] = 1;
  }

  // Unlike the workload, recovery checks every step: failing to persist a
  // redone page must not report a successful recovery.
  int redone = 0;
  for (int i = 0; i < kNumPages; ++i) {
    if (!dirty[i]) {
      continue;
    }
    if (pwrite(pages_fd, pages[i], kPageSize, static_cast<off_t>(i) * kPageSize) !=
        kPageSize) {
      Fail("pages write");
    }
    ++redone;
  }
  if (fsync(pages_fd) != 0) {
    Fail("pages fsync");
  }
  if (close(pages_fd) != 0) {
    Fail("pages close");
  }
  int fd = open("meta.tmp", O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    Fail("meta open");
  }
  char line[32];
  int len = snprintf(line, sizeof(line), "ckpt %u\n", max_lsn);
  if (write(fd, line, static_cast<size_t>(len)) != len) {
    Fail("meta write");
  }
  if (fdatasync(fd) != 0) {
    Fail("meta sync");
  }
  if (close(fd) != 0) {
    Fail("meta close");
  }
  if (rename("meta.tmp", "meta.chk") != 0) {
    Fail("meta rename");
  }
  printf("recovered: %d pages redone, checkpoint lsn %u\n", redone, max_lsn);
  return 0;
}

// ---- verify ----------------------------------------------------------------

// Independent invariant checker, written with none of the engine's bugs: it
// recomputes the expected page store from the durable log and holds the
// recovered state to the oracle's acknowledgements. Exit 1 = invariant
// violated; every message is a single distinctive first line because the
// harness folds it into the test record's detail field.
int RunVerify() {
  static WalRecord recs[kMaxWalRecords];
  int count = LoadWal(recs, kMaxWalRecords);

  // Expected state: all committed writes applied in log order.
  unsigned exp_lsn[kNumPages] = {0};
  unsigned char exp_byte[kNumPages] = {0};
  for (int i = 0; i < count; ++i) {
    if (recs[i].commit || !TxnCommitted(recs, count, recs[i].txid)) {
      continue;
    }
    exp_lsn[recs[i].page] = recs[i].lsn;
    exp_byte[recs[i].page] = static_cast<unsigned char>(recs[i].byte);
  }

  // Durability: every commit the engine acknowledged must be in the log.
  int promised = 0;
  FILE* oracle = fopen("oracle.txt", "r");
  if (oracle != nullptr) {
    char line[64];
    int txid = 0;
    while (fgets(line, sizeof(line), oracle) != nullptr) {
      if (sscanf(line, "commit %d", &txid) != 1) {
        continue;
      }
      ++promised;
      if (!TxnCommitted(recs, count, txid)) {
        printf("txengine-verify: lost committed txn %d (acknowledged but absent from "
               "durable log)\n",
               txid);
        fclose(oracle);
        return 1;
      }
    }
    fclose(oracle);
  }

  int pages_fd = open("pages.db", O_RDONLY);
  if (pages_fd < 0) {
    printf("txengine-verify: pages.db missing after recovery\n");
    return 1;
  }
  unsigned char page[kPageSize];
  for (int i = 0; i < kNumPages; ++i) {
    ssize_t n = pread(pages_fd, page, kPageSize, static_cast<off_t>(i) * kPageSize);
    if (n != kPageSize || GetU32(page) != kPageMagic) {
      printf("txengine-verify: torn page %d (bad image)\n", i);
      close(pages_fd);
      return 1;
    }
    if (GetU32(page + 12) != Fnv1a(page + kHeaderSize, kPayloadSize)) {
      printf("txengine-verify: torn page %d (checksum mismatch)\n", i);
      close(pages_fd);
      return 1;
    }
    unsigned lsn = GetU32(page + 8);
    unsigned char byte = page[kHeaderSize];
    if (lsn != exp_lsn[i] || byte != exp_byte[i]) {
      printf("txengine-verify: page %d diverges from durable log (lsn %u expected %u, "
             "byte %u expected %u)\n",
             i, lsn, exp_lsn[i], byte, exp_byte[i]);
      close(pages_fd);
      return 1;
    }
  }
  close(pages_fd);
  printf("verify ok: %d commits acknowledged, %d wal records, %d pages consistent\n",
         promised, count, kNumPages);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Unbuffered stdio: a killed workload must not carry buffered output into
  // the harness's next capture window, and the verifier's verdict line must
  // be complete even if the parent truncates the pipe.
  setvbuf(stdout, nullptr, _IONBF, 0);
  setvbuf(stderr, nullptr, _IONBF, 0);
  if (argc >= 2 && strcmp(argv[1], "workload") == 0 && argc == 3) {
    int test_id = static_cast<int>(strtol(argv[2], nullptr, 10));
    if (test_id < 1) {
      fprintf(stderr, "txengine: test id must be >= 1, got '%s'\n", argv[2]);
      return 2;
    }
    return RunWorkload(test_id);
  }
  if (argc == 2 && strcmp(argv[1], "recover") == 0) {
    return RunRecover();
  }
  if (argc == 2 && strcmp(argv[1], "verify") == 0) {
    return RunVerify();
  }
  fprintf(stderr, "usage: afex_txengine workload <test-id> | recover | verify\n");
  return 2;
}
