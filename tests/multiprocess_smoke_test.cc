// Multi-process smoke test: forks 3 real `psmr_node` replica processes and
// one closed-loop client on loopback TCP, runs a KV workload, then asserts
// the client saw zero errors and every replica quiesced on the SAME state
// digest. This is the end-to-end proof that the TcpTransport + codec path
// carries the full SMR protocol between address spaces.
//
// The psmr_node binary path is injected at compile time via PSMR_NODE_BINARY
// (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

int pick_free_port() {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  close(fd);
  return ntohs(addr.sin_port);
}

// fork+exec psmr_node with stdout redirected to `stdout_path`.
pid_t spawn_node(const std::vector<std::string>& args,
                 const std::string& stdout_path) {
  std::vector<const char*> argv;
  argv.push_back(PSMR_NODE_BINARY);
  for (const auto& arg : args) argv.push_back(arg.c_str());
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid == 0) {
    const int fd =
        open(stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) _exit(120);
    dup2(fd, STDOUT_FILENO);
    dup2(fd, STDERR_FILENO);
    close(fd);
    execv(PSMR_NODE_BINARY, const_cast<char* const*>(argv.data()));
    _exit(121);  // exec failed
  }
  return pid;
}

// waitpid with a deadline; returns true and fills *status if the child
// exited in time, false (child still running) otherwise.
bool wait_exit(pid_t pid, int timeout_ms, int* status) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    const pid_t r = waitpid(pid, status, WNOHANG);
    if (r == pid) return true;
    if (r < 0) return false;  // no such child
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Extracts `key=<token>` from a node's report line; empty if absent.
std::string extract_field(const std::string& text, const std::string& key) {
  const std::string needle = key + "=";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return "";
  const auto start = pos + needle.size();
  auto end = start;
  while (end < text.size() && !isspace(static_cast<unsigned char>(text[end])))
    ++end;
  return text.substr(start, end - start);
}

TEST(MultiProcessSmoke, ThreeReplicasOneClientConvergeOnDigest) {
  constexpr int kReplicas = 3;
  const std::string dir = ::testing::TempDir();

  std::vector<int> ports;
  for (int i = 0; i < kReplicas; ++i) ports.push_back(pick_free_port());
  std::string peers;
  for (int i = 0; i < kReplicas; ++i) {
    if (i) peers += ",";
    peers += "127.0.0.1:" + std::to_string(ports[static_cast<size_t>(i)]);
  }

  std::vector<pid_t> replica_pids;
  std::vector<std::string> replica_logs;
  for (int i = 0; i < kReplicas; ++i) {
    const std::string log = dir + "/psmr_smoke_replica" + std::to_string(i) +
                            "_" + std::to_string(getpid()) + ".log";
    replica_logs.push_back(log);
    replica_pids.push_back(spawn_node(
        {"--role=replica", "--id=" + std::to_string(i), "--peers=" + peers,
         "--service=kv", "--workers=2"},
        log));
    ASSERT_GT(replica_pids.back(), 0);
  }

  const std::string client_log =
      dir + "/psmr_smoke_client_" + std::to_string(getpid()) + ".log";
  const pid_t client_pid = spawn_node(
      {"--role=client", "--id=" + std::to_string(kReplicas),
       "--peers=" + peers, "--service=kv", "--ops=400", "--pipeline=4",
       "--write-pct=50", "--run-ms=60000"},
      client_log);
  ASSERT_GT(client_pid, 0);

  // The client exits once all 400 ops complete (or its 60 s deadline hits).
  int client_status = -1;
  const bool client_done = wait_exit(client_pid, 90000, &client_status);
  if (!client_done) kill(client_pid, SIGKILL);

  // Stop the replicas; each quiesces, prints its report line, and exits 0.
  for (const pid_t pid : replica_pids) kill(pid, SIGTERM);
  std::vector<int> replica_status(kReplicas, -1);
  for (int i = 0; i < kReplicas; ++i) {
    if (!wait_exit(replica_pids[static_cast<size_t>(i)], 30000,
                   &replica_status[static_cast<size_t>(i)])) {
      kill(replica_pids[static_cast<size_t>(i)], SIGKILL);
      waitpid(replica_pids[static_cast<size_t>(i)], nullptr, 0);
    }
  }
  if (!client_done) waitpid(client_pid, nullptr, 0);

  ASSERT_TRUE(client_done) << "client did not finish; log:\n"
                           << slurp(client_log);
  ASSERT_TRUE(WIFEXITED(client_status));
  const std::string client_out = slurp(client_log);
  EXPECT_EQ(WEXITSTATUS(client_status), 0) << client_out;
  // Pipelined in-flight ops drain after the target is reached, so completed
  // may exceed --ops; it must never fall short.
  const std::string completed = extract_field(client_out, "completed");
  ASSERT_FALSE(completed.empty()) << client_out;
  EXPECT_GE(std::stoull(completed), 400u) << client_out;
  EXPECT_EQ(extract_field(client_out, "errors"), "0") << client_out;
  EXPECT_EQ(extract_field(client_out, "drained"), "1") << client_out;

  std::vector<std::string> digests;
  std::vector<std::string> executed;
  for (int i = 0; i < kReplicas; ++i) {
    const int status = replica_status[static_cast<size_t>(i)];
    const std::string out = slurp(replica_logs[static_cast<size_t>(i)]);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "replica " << i << " did not exit cleanly; log:\n"
        << out;
    const std::string digest = extract_field(out, "digest");
    ASSERT_FALSE(digest.empty()) << "replica " << i << " log:\n" << out;
    digests.push_back(digest);
    executed.push_back(extract_field(out, "executed"));
  }

  for (int i = 1; i < kReplicas; ++i) {
    EXPECT_EQ(digests[static_cast<size_t>(i)], digests[0])
        << "replica " << i << " diverged (executed " << executed[0] << " vs "
        << executed[static_cast<size_t>(i)] << ")";
    EXPECT_EQ(executed[static_cast<size_t>(i)], executed[0]);
  }
  // Every client op the cluster acknowledged was executed everywhere.
  ASSERT_FALSE(executed[0].empty());
  EXPECT_GE(std::stoull(executed[0]), std::stoull(completed));
}

// A replica given a scheduler value it cannot use exits 2 at once, like an
// unknown flag, instead of running without executing anything.
TEST(MultiProcessSmoke, BadSchedulerValuesExitTwo) {
  const std::string peers = "127.0.0.1:" + std::to_string(pick_free_port());
  const std::string log = ::testing::TempDir() + "/psmr_smoke_bad_" +
                          std::to_string(getpid()) + ".log";
  for (const char* bad : {"--cos=striped", "--workers=0", "--workers=abc",
                          "--graph-size=0"}) {
    const pid_t pid = spawn_node({"--role=replica", "--id=0",
                                  "--peers=" + peers, "--service=kv",
                                  "--run-ms=1000", bad},
                                 log);
    ASSERT_GT(pid, 0);
    int status = -1;
    if (!wait_exit(pid, 10000, &status)) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
      FAIL() << bad << " did not exit";
    }
    ASSERT_TRUE(WIFEXITED(status)) << bad;
    EXPECT_EQ(WEXITSTATUS(status), 2) << bad << "; log:\n" << slurp(log);
  }
}

}  // namespace
