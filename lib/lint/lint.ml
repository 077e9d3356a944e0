open Scald_core

let audit ?(rules = Rules.all) nl =
  let ctx = Rules.context nl in
  let findings = List.concat_map (fun (r : Rules.rule) -> r.Rules.check ctx) rules in
  {
    Lint_report.findings = List.stable_sort Lint_report.compare_finding findings;
    nets_audited = Netlist.n_nets nl;
    insts_audited = Netlist.n_insts nl;
  }

let summary nl =
  let r = audit nl in
  {
    Verifier.ls_errors = Lint_report.count Lint_report.Error r;
    ls_warnings = Lint_report.count Lint_report.Warning r;
    ls_infos = Lint_report.count Lint_report.Info r;
    ls_listing = Format.asprintf "%a" Lint_report.pp r;
  }
