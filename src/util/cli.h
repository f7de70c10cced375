// Declarative command-line option table shared by the tools/ CLIs
// (scenario_runner, fleet_runner). Each tool used to hand-roll the same
// argv loop — flag matching, "--x needs a value" diagnostics, a usage()
// that drifted out of sync with the loop. Here the table IS the parser
// AND the --help text, so the two cannot disagree:
//
//   ehdnn::CliParser p("fleet_runner", "Runs a fleet population ...");
//   p.str("--out", "FILE", "output path", &out_path)
//    .int_min("--jobs", "N", "worker threads", &jobs, 1);
//   if (int rc = p.parse(argc, argv); rc >= 0) return rc;
//
// parse() returns -1 when the program should continue, otherwise the
// process exit code: 0 after --help or a terminal flag (--list-runtimes),
// 2 on a malformed command line (unknown flag, missing value, or a
// callback throwing ehdnn::Error — the diagnostic is printed to stderr
// prefixed with the program name).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace ehdnn {

class CliParser {
 public:
  CliParser(std::string prog, std::string summary);

  // --flag VALUE option; fn may throw ehdnn::Error to reject the value.
  CliParser& value(std::string flag, std::string metavar, std::string help,
                   std::function<void(const std::string&)> fn);
  // Boolean --flag.
  CliParser& flag(std::string flag, std::string help, std::function<void()> fn);
  // Boolean --flag after which the program exits 0 (--list-runtimes & co).
  CliParser& terminal(std::string flag, std::string help, std::function<void()> fn);

  // Typed conveniences over value(). int_min parses through
  // parse_integer (util/parse.h) and rejects values below `min` or past
  // the target type with the flag's own diagnostic; seed is parse_seed
  // (0x-prefixed hex accepted).
  CliParser& str(std::string flag, std::string metavar, std::string help, std::string* out);
  CliParser& int_min(std::string flag, std::string metavar, std::string help, int* out,
                     int min);
  CliParser& int_min(std::string flag, std::string metavar, std::string help, long* out,
                     long min);
  CliParser& num(std::string flag, std::string metavar, std::string help, double* out);
  CliParser& seed(std::string flag, std::string metavar, std::string help,
                  std::uint64_t* out);
  CliParser& toggle(std::string flag, std::string help, bool* out, bool to = true);

  // Accepts bare (non "--") arguments — e.g. fleet_runner's --merge
  // inputs. Without this, a bare argument is a usage error.
  CliParser& positionals(std::string metavar, std::string help,
                         std::function<void(const std::string&)> fn);

  // Parses argv (argv[0] ignored). --help is built in.
  int parse(int argc, char** argv);

  void print_help(std::ostream& os) const;

 private:
  struct Opt {
    std::string flag, metavar, help;
    std::function<void(const std::string&)> on_value;  // set iff metavar non-empty
    std::function<void()> on_flag;
    bool is_terminal = false;
  };
  const Opt* find(const std::string& flag) const;

  std::string prog_, summary_;
  std::vector<Opt> opts_;
  std::string pos_metavar_, pos_help_;
  std::function<void(const std::string&)> on_positional_;
};

// The listing flags both tools expose: --list-runtimes (scheduler
// runtime-table keys) and --list-sources (harvest source kinds). Both
// are terminal.
void add_listing_flags(CliParser& p);

}  // namespace ehdnn
