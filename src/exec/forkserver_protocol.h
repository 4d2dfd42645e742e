// Wire contract between the forkserver client (exec/forkserver.h, parent
// side) and the server loop inside libafex_interpose.so (interpose.cc, child
// side). The client spawns the target once with two inherited pipes dup'd to
// fixed descriptors (AFL convention: control on 198, status on 199) and sets
// AFEX_FORKSERVER; the interposer's constructor sees the variable, announces
// itself with a Hello message, and then serves test requests forever,
// forking a child per request. Every child keeps the two fds close-on-exec:
// once its main reaches afex_persistent_run it reads and runs the following
// requests itself, until it exits or crashes and the server forks the next
// one. A child whose main never calls the hook runs one test and exits.
//
// A request names the test (its sequence number and id) and nothing else:
// the plan is not on the pipe. The parent writes it into the feedback block
// (exec/feedback_block.h) before the request, and the server arms it from
// there before each fork, a persistent child before each iteration — the
// same routine, reading the same bytes, as a spawned process or any image
// a child exec()s. All messages are fixed-size PODs written/read whole; a
// short read or a bad magic on either side means the peer is gone or
// corrupted, and the correct response is always the same — server: _exit;
// client: kill the server and respawn it.
//
// This header is included by the interposer, which is built free-standing
// (no gtest, no afex libraries, no sanitizers): keep it to constants, POD
// types, and allocation-free inline helpers.
#ifndef AFEX_EXEC_FORKSERVER_PROTOCOL_H_
#define AFEX_EXEC_FORKSERVER_PROTOCOL_H_

#include <cstdint>

namespace afex {
namespace exec {

// Fixed descriptors the server ends of the pipes are dup2'd to before exec.
// High enough to clear stdio and anything a CLI inherits; the AFL numbers,
// so targets already tooled for AFL forkservers raise no surprises.
inline constexpr int kForkserverCtlFd = 198;     // server reads requests
inline constexpr int kForkserverStatusFd = 199;  // server writes messages

// AFEX_FORKSERVER=1 → serve. Unset/other → plain run.
inline constexpr const char* kForkserverEnvVar = "AFEX_FORKSERVER";
inline constexpr const char* kForkserverEnvServe = "1";

// v2 widened FsPlanEntry with the storage-failure fields (kind, param); v3
// moved persistent iterations into the forked child (no ack, no hello flag);
// v4 moved the plan from the request into the feedback block. Client and
// server are compiled from the same tree, so the version is a handshake
// sanity check, not a negotiation.
inline constexpr uint32_t kForkserverProtocolVersion = 4;

inline constexpr uint32_t kFsMsgMagic = 0x4146534DU;      // "AFSM"
inline constexpr uint32_t kFsRequestMagic = 0x41465351U;  // "AFSQ"

// Server → client messages. One fixed shape for every kind keeps the
// server's writer trivially async-signal-safe.
enum class FsMsgKind : uint32_t {
  // Constructor reached the serve loop. value = protocol version.
  kHello = 1,
  // Child: forked for the request. value = its pid, seq = the request's
  // test_seq. The child sends it first thing, so it precedes anything else
  // the child writes. The client needs the pid to deliver timeout
  // signals — the server itself is blocked in waitpid.
  kChildPid = 2,
  // Server: the child was reaped. value = raw waitpid status (decode with
  // WIFEXITED/WIFSIGNALED), or -1 if fork itself failed. seq = the test the
  // child was running (FeedbackBlock::test_seq): a persistent child may
  // have served several.
  kChildStatus = 3,
  // Persistent child: one iteration returned. value = the entry function's
  // return value masked to 0..255; the child stays live for the next
  // request.
  kIterStatus = 5,
};

struct FsMsg {
  uint32_t magic = 0;  // kFsMsgMagic
  uint32_t kind = 0;   // FsMsgKind
  int32_t value = 0;
  uint32_t seq = 0;
};

// Client → server request: one test, armed from the feedback block's plan.
struct FsRequest {
  uint32_t magic = 0;  // kFsRequestMagic
  uint32_t test_seq = 0;
  uint32_t test_id = 0;  // 1-based; substituted into "{test}" argv slots
};

}  // namespace exec
}  // namespace afex

#endif  // AFEX_EXEC_FORKSERVER_PROTOCOL_H_
