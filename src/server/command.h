#ifndef GKS_SERVER_COMMAND_H_
#define GKS_SERVER_COMMAND_H_

#include "common/flags.h"

namespace gks {

/// CLI entry points for the server surface: `gks serve` and `gks client`
/// (tools/gks_cli.cc). Each returns a process exit code: 0 success,
/// 1 runtime error, 2 usage — an unknown flag or a malformed value,
/// caught before the server binds or the client connects.

/// `gks serve <index.gksidx> [--port=N] [--host=H] [--threads=N]
///            [--queue=N] [--deadline-ms=D] [--cache-bytes=N]
///            [--max-request-bytes=N]`
/// Runs until SIGTERM/SIGINT (graceful drain) or an admin `quit`;
/// SIGHUP hot-reloads the index. Prints one parseable line on startup:
/// `gks server listening on <host>:<port> ...`.
int RunServeCommand(const FlagParser& flags);

/// `gks client [--host=H] [--port=N] (--admin=VERB [--path=P] |
///             --query=Q | --queries=FILE) [--connections=C]
///             [--requests=N] [--s=N] [--top=N]`
/// One-shot admin verb, one-shot query, or a multi-connection load run.
int RunClientCommand(const FlagParser& flags);

}  // namespace gks

#endif  // GKS_SERVER_COMMAND_H_
