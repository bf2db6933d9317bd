/**
 * @file
 * compdiff_monitor: the afl-whatsup analog for campaign sessions.
 *
 *   ./build/examples/compdiff_monitor [options] <session-root>...
 *
 * Scans each root for session directories (any directory holding a
 * MANIFEST counts, so both a single `--session=DIR` run and a whole
 * targets-mode tree work), merges every shard's heartbeats, last
 * checkpoints, and event/divergence feeds into one campaign
 * snapshot, and renders it as a table, JSON or Prometheus text. Run
 * it with --help for the options.
 *
 * Exit status: 0 on success, 1 when no session was found under any
 * root, 2 on usage errors. Scanning is read-only and crash-tolerant;
 * it is safe to point at a tree whose campaigns are mid-write.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "monitor/monitor.hh"
#include "support/flags.hh"

namespace
{

struct MonitorCli
{
    compdiff::monitor::MonitorOptions options;
    std::string format = "table";
    bool watch = false;
    double watchSecs = 2.0;
    bool noPidCheck = false;
    std::vector<std::string> roots;
};

MonitorCli
parseArgs(int argc, char **argv)
{
    using compdiff::support::Flag;
    MonitorCli cli;
    auto &health = cli.options.health;
    const compdiff::support::FlagSet flags(
        "compdiff_monitor [options] <session-root>...",
        {{"",
          {
              Flag("--format=table|json|prom", &cli.format,
                   "text table, JSON document, or Prometheus exposition"),
              Flag("--watch[=SECS]", &cli.watchSecs,
                   "poll and re-render every SECS", &cli.watch),
              Flag("--stall-after=SECS", &health.stallAfterSecs,
                   "stalled-shard heartbeat age"),
              Flag("--dead-after=SECS", &health.deadAfterSecs,
                   "dead-shard heartbeat age"),
              Flag("--no-pid-check", &cli.noPidCheck,
                   "skip the kill(pid,0) liveness probe"),
              Flag("--stable", &cli.options.stable,
                   "omit wall-clock-derived fields"),
              Flag("--now=UNIX_SECS", &cli.options.nowUnix,
                   "reader clock override (testing)"),
          }}});
    cli.roots = flags.parseOrExit({argv + 1, argv + argc}).positional;
    if (cli.roots.empty())
        flags.fail("no session root given");
    if (cli.watchSecs <= 0)
        cli.watchSecs = 2.0;
    health.checkPid = !cli.noPidCheck;
    return cli;
}

/** One scan-and-render pass; returns the session count. */
std::size_t
renderOnce(const MonitorCli &cli)
{
    using namespace compdiff::monitor;
    std::vector<SessionView> sessions;
    for (const auto &root : cli.roots) {
        auto found = scanTree(root, cli.options);
        sessions.insert(sessions.end(),
                        std::make_move_iterator(found.begin()),
                        std::make_move_iterator(found.end()));
    }
    std::string out;
    if (cli.format == "json")
        out = renderJson(sessions, cli.options);
    else if (cli.format == "prom")
        out = renderProm(sessions, cli.options);
    else
        out = renderTable(sessions, cli.options);
    std::fputs(out.c_str(), stdout);
    if (!out.empty() && out.back() != '\n')
        std::fputc('\n', stdout);
    std::fflush(stdout);
    return sessions.size();
}

} // namespace

int
main(int argc, char **argv)
{
    const MonitorCli cli = parseArgs(argc, argv);
    if (!cli.watch)
        return renderOnce(cli) == 0 ? 1 : 0;
    for (;;) {
        // Home + clear-to-end keeps the snapshot flicker-free in a
        // terminal (full clears make short tables blink).
        std::fputs("\033[H\033[2J", stdout);
        renderOnce(cli);
        std::this_thread::sleep_for(std::chrono::duration<double>(
            cli.watchSecs));
    }
}
