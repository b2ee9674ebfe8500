let factory ?override ?tally ?idle_restart_s tree =
  Remy_cc.Sender_backend.bank (Remycc.plug ?override ?tally ?idle_restart_s tree)
