// cfmtrace — the benchmark's in-process span recorder.
//
// Each mirror command calls the same public library functions, in the same
// order, as the user command it is named after, and records a span around
// each call. Spans stay in memory and are written as JSON to --spans=FILE
// when the command ends:
//
//   check FILE              cfmc check FILE
//   lint FILE               cfmc lint FILE
//   cert FILE OUT           cfmc check FILE --emit-cert=OUT
//   verify CERT             cfmproof-check CERT
//   prove FILE OUT          cfmc prove FILE --emit-proof=OUT
//   checkproof FILE PROOF   cfmc checkproof FILE --proof=PROOF
//   batch DIR JOBS          cfmc batch DIR --jobs=JOBS
//   gen N SEED OUT          cfmc gen OUT --scale=N --seed=SEED
//   service REQUESTS DOC    cfmd serving REQUESTS (one "KIND<tab>JSON" request
//                           per line; the span is service.handle_KIND), then
//                           ContentAddress of the document DOC
//
// Breakdown probes, which mirror no single command:
//
//   lint-passes FILE        bytecode, footprints and each lint pass alone
//   batch-scaling DIR       BatchCertifier with 1 and with 4 workers
//   explore SEED            exhaustive noninterference on small concurrent
//                           generated programs: POR on, off, and recording
//                           conflicts
//   build-info              {"ndebug": ..., "compiler": ...}
//
// And one helper for the harness:
//
//   spawn REPORT PROGRAM ARGS...
//                           runs PROGRAM with ARGS (stdin, stdout and stderr
//                           inherited), waits for it and writes its exit
//                           code, wall and CPU seconds and peak RSS to
//                           REPORT as JSON. A child's peak RSS never reads
//                           below the RSS of the process that forked it, so
//                           the harness measures through this small process
//                           rather than forking from its own interpreter.
//
// A span is named <layer>.<call>, where the layer is the src/ module whose
// function the span wraps. Each span records both wall time and the
// process's CPU time; the harness (perfbench/run.py) turns spans into
// per-layer self times.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/analysis/lint.h"
#include "src/certcheck/certcheck.h"
#include "src/core/batch.h"
#include "src/core/pipeline.h"
#include "src/core/report.h"
#include "src/gen/program_gen.h"
#include "src/lang/printer.h"
#include "src/lattice/compiled.h"
#include "src/logic/certificate.h"
#include "src/logic/proof.h"
#include "src/logic/proof_io.h"
#include "src/runtime/bytecode.h"
#include "src/runtime/noninterference.h"
#include "src/service/service.h"
#include "src/support/hash.h"
#include "src/support/json.h"

namespace cfm {
namespace {

using Clock = std::chrono::steady_clock;

// Spans and counters of one command, kept in memory until Write().
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name) : tracer_(tracer) {
      index_ = tracer_.spans_.size();
      tracer_.spans_.push_back(
          {std::move(name), tracer_.open_, tracer_.Now(), 0, ProcessCpuNanos(), 0});
      tracer_.open_ = static_cast<int64_t>(index_);
    }
    ~Scope() {
      Record& span = tracer_.spans_[index_];
      span.end = tracer_.Now();
      span.cpu_end = ProcessCpuNanos();
      tracer_.open_ = span.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    size_t index_ = 0;
  };

  Tracer() : origin_(Clock::now()) {}

  Scope Span(std::string name) { return Scope(*this, std::move(name)); }
  void Count(const std::string& name, double value) { counts_[name] = value; }

  void Write(const std::string& path) const {
    JsonWriter json;
    json.BeginObject();
    json.Key("spans").BeginArray();
    for (const Record& span : spans_) {
      json.BeginArray();
      json.String(span.name).Int(span.parent).Int(span.start).Int(span.end);
      json.Int(span.cpu_start).Int(span.cpu_end);
      json.EndArray();
    }
    json.EndArray();
    json.Key("counts").BeginObject();
    for (const auto& [name, value] : counts_) {
      std::ostringstream number;
      number.precision(17);
      number << value;
      json.Key(name).Raw(number.str());
    }
    json.EndObject();
    json.EndObject();
    std::ofstream(path) << json.str() << "\n";
  }

 private:
  struct Record {
    std::string name;
    int64_t parent = -1;  // Index of the enclosing span; -1 at the root.
    int64_t start = 0;    // Wall nanoseconds since the tracer was created.
    int64_t end = 0;
    int64_t cpu_start = 0;  // CPU nanoseconds of the whole process.
    int64_t cpu_end = 0;
  };

  static int64_t ProcessCpuNanos() {
    timespec now{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
    return int64_t{now.tv_sec} * 1'000'000'000 + now.tv_nsec;
  }

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Record> spans_;
  std::map<std::string, double> counts_;
  int64_t open_ = -1;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// The front half every file-based cfmc subcommand shares: lattice, load,
// parse, bind, certify. Returns false (after printing the failure the way
// cfmc does) when a stage fails.
bool FrontEnd(Tracer& tracer, CfmPipeline& pipeline, const std::string& path) {
  {
    auto span = tracer.Span("lattice.resolve");
    pipeline.lattice();
  }
  std::string text;
  {
    auto span = tracer.Span("support.load");
    text = ReadFile(path);
  }
  bool parsed = false;
  {
    auto span = tracer.Span("lang.parse");
    parsed = pipeline.LoadSource(path, text);
  }
  if (!parsed) {
    RenderedReport failure = RenderPipelineFailure(pipeline);
    std::cerr << failure.out << failure.err;
    return false;
  }
  tracer.Count("lang.stmts", pipeline.program()->stmt_count());
  tracer.Count("lang.source_bytes", static_cast<double>(text.size()));
  {
    auto span = tracer.Span("core.bind");
    pipeline.binding();
  }
  {
    auto span = tracer.Span("core.certify");
    pipeline.certification();
  }
  return pipeline.binding() != nullptr;
}

void WriteOut(Tracer& tracer, const RenderedReport& report) {
  auto span = tracer.Span("support.write");
  std::cout << report.out << std::flush;
  std::cerr << report.err;
}

ReportOptions ReportFor(const std::string& path) {
  ReportOptions options;
  options.file = path;
  return options;
}

int Check(Tracer& tracer, CfmPipeline& pipeline, const std::string& path) {
  if (!FrontEnd(tracer, pipeline, path)) {
    return 1;
  }
  RenderedReport report;
  {
    auto span = tracer.Span("core.render");
    report = RenderCheckReport(pipeline, ReportFor(path));
  }
  tracer.Count("core.render_bytes", static_cast<double>(report.out.size()));
  WriteOut(tracer, report);
  return report.exit_code;
}

int Lint(Tracer& tracer, CfmPipeline& pipeline, const std::string& path) {
  if (!FrontEnd(tracer, pipeline, path)) {
    return 1;
  }
  {
    auto span = tracer.Span("analysis.lint");
    pipeline.lint();
  }
  tracer.Count("analysis.findings", static_cast<double>(pipeline.lint()->active_count()));
  RenderedReport report;
  {
    auto span = tracer.Span("analysis.render");
    report = RenderLintReport(pipeline, ReportFor(path));
  }
  WriteOut(tracer, report);
  return report.exit_code;
}

int EmitCert(Tracer& tracer, CfmPipeline& pipeline, const std::string& path,
             const std::string& out_path) {
  if (!FrontEnd(tracer, pipeline, path)) {
    return 1;
  }
  RenderedReport report;
  {
    auto span = tracer.Span("core.render");
    report = RenderCheckReport(pipeline, ReportFor(path));
  }
  WriteOut(tracer, report);
  const Proof* proof = nullptr;
  {
    auto span = tracer.Span("logic.prove");
    proof = pipeline.proof();
  }
  if (proof == nullptr) {
    std::cerr << "cfmtrace: cannot emit certificate: program not certified\n";
    return 1;
  }
  CertificateOptions options;
  options.program_name = path;
  options.source = pipeline.source()->contents();
  std::string cert;
  {
    auto span = tracer.Span("logic.cert_write");
    auto written = WriteCertificate(*proof, *pipeline.program(), *pipeline.binding(), options);
    if (!written.ok()) {
      std::cerr << "cfmtrace: cannot emit certificate: " << written.error() << "\n";
      return 1;
    }
    cert = std::move(written.value());
  }
  tracer.Count("logic.cert_bytes", static_cast<double>(cert.size()));
  {
    auto span = tracer.Span("support.write");
    std::ofstream(out_path, std::ios::binary) << cert;
    std::cout << "certificate written to " << out_path << "\n";
  }
  return report.exit_code;
}

int Verify(Tracer& tracer, const std::string& path) {
  std::string text;
  {
    auto span = tracer.Span("support.load");
    text = ReadFile(path);
  }
  tracer.Count("certcheck.bytes", static_cast<double>(text.size()));
  certcheck::VerifyOutcome outcome;
  {
    auto span = tracer.Span("certcheck.verify");
    outcome = certcheck::VerifyCertificate(text);
  }
  auto span = tracer.Span("support.write");
  if (!outcome.ok) {
    std::cerr << path << ":" << outcome.error_line << ": " << outcome.error << "\n";
    return 1;
  }
  std::cout << path << ": verified program '" << outcome.program_name << "'\n";
  return 0;
}

int Prove(Tracer& tracer, CfmPipeline& pipeline, const std::string& path,
          const std::string& out_path) {
  if (!FrontEnd(tracer, pipeline, path)) {
    return 1;
  }
  const Proof* proof = nullptr;
  {
    auto span = tracer.Span("logic.prove");
    proof = pipeline.proof();
  }
  if (proof == nullptr) {
    std::cerr << "cfmtrace: " << pipeline.error() << "\n";
    return 1;
  }
  tracer.Count("logic.proof_nodes", static_cast<double>(proof->Size()));
  const Program& program = *pipeline.program();
  std::string printed;
  {
    auto span = tracer.Span("logic.proof_print");
    printed = PrintProof(*proof, program.symbols(), pipeline.extended());
  }
  tracer.Count("logic.proof_print_bytes", static_cast<double>(printed.size()));
  {
    auto span = tracer.Span("support.write");
    std::cout << printed;
  }
  bool valid = false;
  {
    auto span = tracer.Span("logic.proof_check");
    valid = !pipeline.checker()->Check(*proof).has_value();
  }
  std::string serialized;
  {
    auto span = tracer.Span("logic.proof_serialize");
    serialized = SerializeProof(*proof, program, pipeline.extended());
  }
  auto span = tracer.Span("support.write");
  std::cout << "\nproof " << (valid ? "verified" : "INVALID") << "\n" << std::flush;
  std::ofstream(out_path) << serialized;
  return valid ? 0 : 1;
}

int CheckProof(Tracer& tracer, CfmPipeline& pipeline, const std::string& path,
               const std::string& proof_path) {
  if (!FrontEnd(tracer, pipeline, path)) {
    return 1;
  }
  std::string text;
  {
    auto span = tracer.Span("support.load");
    text = ReadFile(proof_path);
  }
  const Program& program = *pipeline.program();
  std::optional<Proof> proof;
  {
    auto span = tracer.Span("logic.proof_parse");
    auto parsed = ParseProof(text, program, pipeline.extended());
    if (parsed.ok()) {
      proof.emplace(std::move(parsed.value()));
    }
  }
  if (!proof) {
    std::cerr << "cfmtrace: proof does not parse\n";
    return 1;
  }
  bool valid = false;
  {
    auto span = tracer.Span("logic.proof_check");
    valid = !pipeline.checker()->Check(*proof).has_value() &&
            EffectiveProofStmt(proof->arena, proof->root) == &program.root();
  }
  {
    auto span = tracer.Span("logic.policy_check");
    const StaticBinding& binding = *pipeline.binding();
    FlowAssertion policy = FlowAssertion::Policy(binding, program.symbols());
    valid = valid && proof->pre().VPart().EquivalentTo(policy, binding.extended()) &&
            proof->post().Entails(policy, binding.extended());
  }
  auto span = tracer.Span("support.write");
  std::cout << (valid ? "proof verified\n" : "proof INVALID\n");
  return valid ? 0 : 1;
}

std::vector<BatchJob> LoadCorpus(Tracer& tracer, const std::string& dir) {
  namespace fs = std::filesystem;
  auto span = tracer.Span("support.load");
  std::vector<BatchJob> jobs;
  for (const fs::directory_entry& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".cfm") {
      jobs.push_back(BatchJob{entry.path().string(), ReadFile(entry.path().string())});
    }
  }
  std::sort(jobs.begin(), jobs.end(),
            [](const BatchJob& a, const BatchJob& b) { return a.name < b.name; });
  return jobs;
}

std::unique_ptr<CompiledLattice> CompileTwoPoint(Tracer& tracer,
                                                 std::unique_ptr<Lattice>& base) {
  {
    auto span = tracer.Span("lattice.resolve");
    base = MakeLatticeFromSpec("two");
  }
  auto span = tracer.Span("lattice.compile");
  return CompiledLattice::Compile(*base);
}

BatchSummary RunBatch(Tracer& tracer, const Lattice& lattice,
                      const std::vector<BatchJob>& jobs, uint32_t workers,
                      const std::string& span_name) {
  BatchOptions options;
  options.jobs = workers;
  auto span = tracer.Span(span_name);
  return BatchCertifier(lattice, options).Run(jobs);
}

int Batch(Tracer& tracer, const std::string& dir, uint32_t workers) {
  std::vector<BatchJob> jobs = LoadCorpus(tracer, dir);
  std::unique_ptr<Lattice> base;
  std::unique_ptr<CompiledLattice> compiled = CompileTwoPoint(tracer, base);
  BatchSummary summary = RunBatch(tracer, *compiled, jobs, workers, "core.batch");
  std::string out;
  {
    auto span = tracer.Span("core.render");
    std::ostringstream lines;
    for (const BatchJobResult& result : summary.results) {
      lines << (result.certified ? "CERTIFIED  " : "REJECTED   ") << result.name << "\n";
    }
    lines << "batch: " << summary.certified << " certified, " << summary.rejected
          << " rejected, " << summary.failed << " errors, " << summary.total_stmts
          << " statements\n";
    out = lines.str();
  }
  auto span = tracer.Span("support.write");
  std::cout << out << std::flush;
  return summary.all_certified() ? 0 : 1;
}

int Gen(Tracer& tracer, uint32_t stmts, uint64_t seed, const std::string& out_path) {
  std::optional<Program> program;
  {
    auto span = tracer.Span("gen.program");
    program.emplace(GenerateProgram(ScaleGenOptions(stmts, seed)));
  }
  std::string text;
  {
    auto span = tracer.Span("lang.print");
    text = PrintProgram(*program);
  }
  {
    auto span = tracer.Span("support.write");
    std::ofstream(out_path) << text;
  }
  auto span = tracer.Span("lang.teardown");
  program.reset();
  return 0;
}

// Replays recorded cfmd requests through the daemon's request router, in
// order, as cfmd's event loop would hand them over.
int Service(Tracer& tracer, const std::string& requests_path, const std::string& doc_path) {
  std::vector<std::pair<std::string, std::string>> requests;  // (kind, payload)
  {
    auto span = tracer.Span("support.load");
    std::ifstream in(requests_path, std::ios::binary);
    for (std::string line; std::getline(in, line);) {
      size_t tab = line.find('\t');
      requests.emplace_back(line.substr(0, tab), line.substr(tab + 1));
    }
  }
  CertService service;
  uint64_t failures = 0;
  for (const auto& [kind, request] : requests) {
    bool shutdown = false;
    std::string response;
    {
      auto span = tracer.Span("service.handle_" + kind);
      response = service.Handle(request, &shutdown);
    }
    failures += response.rfind("{\"ok\":true", 0) == 0 ? 0 : 1;
  }
  tracer.Count("service.failed_requests", static_cast<double>(failures));
  // ContentAddress of the session's document, repeated for a readable time.
  std::string doc;
  {
    auto span = tracer.Span("support.load");
    doc = ReadFile(doc_path);
  }
  constexpr int kRepeats = 20;
  volatile uint64_t sink = 0;  // Keeps every ContentAddress call.
  {
    auto span = tracer.Span("support.content_address");
    for (int i = 0; i < kRepeats; ++i) {
      sink = sink ^ ContentAddress(doc);
    }
  }
  tracer.Count("support.content_address_repeats", kRepeats);
  return failures == 0 ? 0 : 1;
}

int LintPasses(Tracer& tracer, CfmPipeline& pipeline, const std::string& path) {
  if (!FrontEnd(tracer, pipeline, path)) {
    return 1;
  }
  const Program& program = *pipeline.program();
  std::optional<CompiledProgram> code;
  {
    auto span = tracer.Span("runtime.bytecode");
    code.emplace(Compile(program));
  }
  {
    auto span = tracer.Span("runtime.footprints");
    StmtFootprints footprints(*code, program.symbols());
  }
  const StaticBinding* binding = pipeline.binding();
  const CertificationResult* certification = pipeline.certification();
  // RunLint rebuilds bytecode and footprints on every call; a suppression-
  // only run without a source buffer does nothing else, so it is the
  // baseline each single-pass run is measured against.
  LintOptions baseline;
  baseline.only = {LintPass::kSuppression};
  {
    auto span = tracer.Span("analysis.lint_baseline");
    RunLint(program, binding, certification, nullptr, baseline);
  }
  for (LintPass pass : kAllLintPasses) {
    LintOptions one;
    one.only = {pass};
    auto span = tracer.Span("analysis.pass." + std::string(ToString(pass)));
    RunLint(program, binding, certification, pipeline.source(), one);
  }
  return 0;
}

int BatchScaling(Tracer& tracer, const std::string& dir) {
  std::vector<BatchJob> jobs = LoadCorpus(tracer, dir);
  std::unique_ptr<Lattice> base;
  std::unique_ptr<CompiledLattice> compiled = CompileTwoPoint(tracer, base);
  RunBatch(tracer, *compiled, jobs, 1, "core.batch_1w");
  RunBatch(tracer, *compiled, jobs, 4, "core.batch_4w");
  return 0;
}

int Explore(Tracer& tracer, uint64_t seed, uint32_t programs) {
  struct Mode {
    const char* name;
    bool por;
    bool record_conflicts;
  };
  const Mode modes[] = {{"por", true, false}, {"full", false, false},
                        {"conflicts", true, true}};
  std::vector<Program> corpus;
  for (uint32_t i = 0; i < programs; ++i) {
    GenOptions options;
    options.seed = seed + i;
    options.target_stmts = 12;
    options.max_processes = 3;
    corpus.push_back(GenerateProgram(options));
  }
  for (const Mode& mode : modes) {
    uint64_t states = 0;
    {
      auto span = tracer.Span(std::string("runtime.explore_") + mode.name);
      for (const Program& program : corpus) {
        CompiledProgram code = Compile(program);
        ExhaustiveNiOptions options;
        options.por = mode.por;
        options.record_conflicts = mode.record_conflicts;
        options.max_states = 200'000;
        for (const Symbol& symbol : program.symbols().symbols()) {
          if (symbol.kind != SymbolKind::kInteger) {
            continue;
          }
          if (options.secret == kInvalidSymbol) {
            options.secret = symbol.id;
          } else {
            options.observable.push_back(symbol.id);
          }
        }
        states += VerifyNoninterferenceExhaustive(code, program.symbols(), options)
                      .states_visited;
      }
    }
    tracer.Count(std::string("runtime.explore_states_") + mode.name,
                 static_cast<double>(states));
  }
  return 0;
}

int BuildInfo() {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  JsonWriter json;
  json.BeginObject();
  json.Key("ndebug").Bool(ndebug);
  json.Key("compiler").String(compiler);
  json.EndObject();
  std::cout << json.str() << "\n";
  return 0;
}

int Spawn(const std::string& report_path, char** argv) {
  const auto start = Clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("cfmtrace: fork");
    return 2;
  }
  if (pid == 0) {
    execvp(argv[0], argv);
    std::perror("cfmtrace: exec");
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) {
    std::perror("cfmtrace: wait4");
    return 2;
  }
  const double wall = std::chrono::duration<double>(Clock::now() - start).count();
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  auto seconds = [](const timeval& t) { return t.tv_sec + t.tv_usec / 1e6; };
  std::ostringstream report;
  report.precision(17);
  report << "{\"code\": " << code << ", \"wall_s\": " << wall
         << ", \"cpu_s\": " << seconds(usage.ru_utime) + seconds(usage.ru_stime)
         << ", \"maxrss_kb\": " << usage.ru_maxrss << "}\n";
  std::ofstream(report_path) << report.str();
  return code;
}

int Usage() {
  std::cerr << "usage: cfmtrace <check|lint|cert|verify|prove|checkproof|batch|gen|service|\n"
               "                 lint-passes|batch-scaling|explore> ARGS... --spans=FILE\n"
               "       cfmtrace build-info\n"
               "       cfmtrace spawn REPORT PROGRAM ARGS...\n";
  return 2;
}

int Main(int argc, char** argv) {
  if (argc >= 4 && std::string(argv[1]) == "spawn") {
    return Spawn(argv[2], argv + 3);
  }
  Tracer tracer;
  std::vector<std::string> args;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--spans=", 0) == 0) {
      spans_path = arg.substr(8);
    } else {
      args.push_back(std::move(arg));
    }
  }
  if (args.empty()) {
    return Usage();
  }
  const std::string& command = args[0];
  if (command == "build-info") {
    return BuildInfo();
  }
  auto arity = [&args](size_t n) { return args.size() == n + 1; };
  // Pipeline commands get a fresh pipeline, destroyed inside its own span
  // as cfmc destroys its pipeline when the command returns.
  auto with_pipeline = [&tracer](auto run) {
    auto pipeline = std::make_unique<CfmPipeline>();
    int code = run(*pipeline);
    auto span = tracer.Span("core.teardown");
    pipeline.reset();
    return code;
  };
  int code = 2;
  {
    auto root = tracer.Span("cmd." + command);
    if (command == "check" && arity(1)) {
      code = with_pipeline([&](CfmPipeline& p) { return Check(tracer, p, args[1]); });
    } else if (command == "lint" && arity(1)) {
      code = with_pipeline([&](CfmPipeline& p) { return Lint(tracer, p, args[1]); });
    } else if (command == "cert" && arity(2)) {
      code = with_pipeline(
          [&](CfmPipeline& p) { return EmitCert(tracer, p, args[1], args[2]); });
    } else if (command == "verify" && arity(1)) {
      code = Verify(tracer, args[1]);
    } else if (command == "prove" && arity(2)) {
      code = with_pipeline([&](CfmPipeline& p) { return Prove(tracer, p, args[1], args[2]); });
    } else if (command == "checkproof" && arity(2)) {
      code = with_pipeline(
          [&](CfmPipeline& p) { return CheckProof(tracer, p, args[1], args[2]); });
    } else if (command == "batch" && arity(2)) {
      code = Batch(tracer, args[1], static_cast<uint32_t>(std::stoul(args[2])));
    } else if (command == "gen" && arity(3)) {
      code = Gen(tracer, static_cast<uint32_t>(std::stoul(args[1])), std::stoull(args[2]),
                 args[3]);
    } else if (command == "service" && arity(2)) {
      code = Service(tracer, args[1], args[2]);
    } else if (command == "lint-passes" && arity(1)) {
      code = with_pipeline([&](CfmPipeline& p) { return LintPasses(tracer, p, args[1]); });
    } else if (command == "batch-scaling" && arity(1)) {
      code = BatchScaling(tracer, args[1]);
    } else if (command == "explore" && arity(2)) {
      code = Explore(tracer, std::stoull(args[1]), static_cast<uint32_t>(std::stoul(args[2])));
    } else {
      return Usage();
    }
  }
  if (!spans_path.empty()) {
    tracer.Write(spans_path);
  }
  return code;
}

}  // namespace
}  // namespace cfm

int main(int argc, char** argv) { return cfm::Main(argc, argv); }
