#include "child.hh"

#include <cerrno>
#include <filesystem>
#include <system_error>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "measure.hh"

extern char **environ;

namespace perfbench
{

namespace
{

[[noreturn]] void
fail(int code, const char *what)
{
    throw std::system_error(code, std::generic_category(), what);
}

} // namespace

ChildRun
runSelf(const std::vector<std::string> &args)
{
    static const std::string exe =
        std::filesystem::read_symlink("/proc/self/exe").string();
    std::vector<std::string> text = args;
    text.insert(text.begin(), exe);
    std::vector<char *> argv;
    for (std::string &a : text)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0)
        fail(errno, "pipe");
    posix_spawn_file_actions_t actions;
    ::posix_spawn_file_actions_init(&actions);
    ::posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    ChildRun run;
    pid_t pid = 0;
    run.spawnedAt = nowSeconds();
    const int spawned = ::posix_spawn(&pid, exe.c_str(), &actions, nullptr,
                                      argv.data(), environ);
    ::posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    if (spawned != 0) {
        ::close(fds[0]);
        fail(spawned, "spawn");
    }
    char buf[1 << 16];
    for (;;) {
        const ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n > 0)
            run.out.append(buf, static_cast<std::size_t>(n));
        else if (n == 0 || errno != EINTR)
            break;
    }
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0)
        if (errno != EINTR)
            fail(errno, "waitpid");
    run.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return run;
}

} // namespace perfbench
